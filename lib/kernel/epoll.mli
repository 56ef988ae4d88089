(** The epoll kernel object: interest set + edge-triggered ready queue.

    Sockets and pipes push interest entries onto the ready queue at the
    state transition itself, so a wait costs O(ready) instead of the
    legacy poll's O(connections) rescan.  An entry is its own watch: the
    watched object's in-list and out-list hold entries directly.
    Edge-triggered with arm-time level checks; ONESHOT entries disarm on
    delivery until re-armed by ctl(MOD).  The [e_queued] flag bounds the
    ready queue by the interest size and counts coalesced edges.

    Pure mechanism (no LWPs, costs or errnos) in the style of {!Socket}
    and {!Pipe}; the syscall layer owns fd validation and blocking. *)

type entry = {
  e_owner : t;
  e_fd : int;
  mutable e_want_in : bool;
  mutable e_want_out : bool;
  mutable e_oneshot : bool;
  mutable e_armed : bool;
  mutable e_queued : bool;
  mutable e_dead : bool;
  mutable e_in_listed : bool;
      (** physically on its object's in-list (at most once) *)
  mutable e_out_listed : bool;
      (** physically on its object's out-list (at most once) *)
}

and t

val create : id:int -> t
(** [id] is the owning fd number (for /proc and traces). *)

val id : t -> int
val closed : t -> bool
val find : t -> int -> entry option

val register : t -> fd:int -> want_in:bool -> want_out:bool -> oneshot:bool -> entry
(** Insert an armed, unqueued, unlisted entry; the caller attaches it to
    the object's watch lists, then runs the arm-time readiness check
    ({!note_edge} on a ready level). *)

val note_edge : entry -> unit
(** An edge (or arm-time level hit) on an entry: enqueue it unless
    disarmed, already queued (counted as coalesced), dead, or the epoll
    is closed.  Fires blocked waiters on a genuine enqueue. *)

val kill_entry : entry -> unit
(** Mark dead and drop from the interest set.  A dead entry still in the
    ready queue is skipped by {!pop} — the removal-with-pending-readiness
    case — and one still on watch lists is pruned by their next firing. *)

val pop : t -> entry option
(** Next live ready entry (dead ones are discarded in passing); clears
    its queued flag.  [None] when the queue is empty. *)

val note_delivered : entry -> unit
(** Delivery accounting; disarms ONESHOT entries. *)

val add_waiter : t -> (unit -> unit) -> unit
(** One-shot waiter, fired (socket-style, oldest first) when an entry is
    enqueued or the epoll closes. *)

val close : t -> unit
(** Kill every entry, clear interest and ready, wake blocked waiters. *)

(** {1 Watch lists}

    A watched object keeps an in-list (transitions that may make it
    readable or acceptable) and an out-list (writable).  An entry on the
    in-list is live iff [not e_dead && e_want_in], on the out-list iff
    [not e_dead && e_want_out]; registration performs no readiness
    check, and spurious firings are part of the contract. *)

type side = In | Out  (** the in-list or the out-list *)

val fire : side -> entry list -> bool
(** {!note_edge} every live entry of a list, head first.  [true] when
    the walk met an entry that is no longer live: the owner should then
    replace its list by {!prune} of it. *)

val prune : side -> entry list -> entry list
(** Drop the entries that are not live, clearing their listed flag. *)

val attach : side -> entry -> entry list -> entry list
(** Prepend the entry to a list unless it is already on one. *)

(** {1 Stats (procfs [pp_epoll], net_server debrief)} *)

val interest_count : t -> int
val ready_depth : t -> int
val edges : t -> int
val coalesced : t -> int
val wakeups : t -> int
val delivered : t -> int
