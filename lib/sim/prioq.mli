(** Priority-indexed multi-queue with an occupancy bitmask.

    One FIFO bucket per priority level; a bitmask of non-empty buckets
    makes "highest occupied priority" a find-highest-set over a couple of
    words rather than a scan of every level.  Built for the dispatcher's
    run queues: consumers using lazy deletion prune stale entries from
    bucket fronts via {!prune}, keeping every operation O(1)
    amortized.  The mask is exact about bucket non-emptiness and
    conservative about liveness (a set bit may cover only stale entries
    until a prune drains them). *)

type 'a t

val create : levels:int -> 'a t
(** [levels] priority slots, [0 .. levels-1].  Raises [Invalid_argument]
    when [levels <= 0]. *)

val levels : 'a t -> int

val push : 'a t -> int -> 'a -> unit
(** FIFO append at the given priority. *)

val top : 'a t -> int
(** Highest non-empty priority, or [-1] when all buckets are empty. *)

val top_below : 'a t -> int -> int
(** [top_below t p]: highest non-empty priority [<= p], or [-1]. *)

val prune : 'a t -> int -> keep:(int -> 'a -> bool) -> bool
(** [prune t prio ~keep] discards entries failing [keep prio] from the
    front of the bucket; [true] iff a surviving entry is left at its
    front (read it with {!front}).  Allocates nothing. *)

val front : 'a t -> int -> 'a
(** The front entry of the bucket (raises [Queue.Empty] if the bucket is
    empty). *)

val drop_front : 'a t -> int -> unit
(** Remove the front entry of the bucket (raises [Queue.Empty] if the
    bucket is empty). *)

val live_entries : 'a t -> int -> keep:(int -> 'a -> bool) -> 'a list
(** All entries of the bucket passing [keep prio], front first, without
    mutating the queue.  Exploration support; O(bucket). *)

val remove : 'a t -> int -> 'a -> bool
(** Remove the first physically-equal occurrence of the entry from the
    bucket; returns whether one was found.  Exploration support;
    O(bucket). *)

val length : 'a t -> int
(** Total queued entries, including stale ones; O(levels). *)

val is_empty : 'a t -> bool
