(** One direction of a byte stream: a bounded byte queue, close flags,
    one-shot waiters and epoll watch lists.  {!Pipe} is one of these; a
    {!Socket} connection is two.

    The queued bytes are [data.[doff ..]] and the empty queue is
    [("", 0)]: an idle stream holds no buffer.  {!push} into an empty
    queue keeps the chunk itself and {!take} of everything returns it,
    both without copying. *)

type t = {
  capacity : int;
  mutable data : string;
  mutable doff : int;
  mutable wire : string list;
      (** chunks accepted from the writer and not yet landed, oldest
          first (sockets only) *)
  mutable wclosed : bool;  (** writer closed: EOF once drained *)
  mutable rclosed : bool;  (** reader closed: further writes fail *)
  mutable stall_until : Sunos_sim.Time.t;
      (** fault injection: deliveries deferred until then (sockets) *)
  mutable read_waiters : (unit -> unit) list;
  mutable write_waiters : (unit -> unit) list;
  mutable read_watches : Epoll.entry list;  (** epoll in-list *)
  mutable write_watches : Epoll.entry list;  (** epoll out-list *)
}

val create : int -> t
(** An empty, open queue of the given capacity. *)

val buffered : t -> int
val window : t -> int
(** [capacity - buffered -] the bytes on the wire. *)

val push : t -> string -> unit
(** Append a chunk; the caller enforces the window. *)

val take : t -> int -> string
(** [take d n] removes and returns the first [n] bytes,
    [0 < n <= buffered d]. *)

val clear : t -> unit

val fire_read_waiters : t -> unit
(** Fire the one-shot read waiters (oldest first), then the live epoll
    entries on the in-list, pruning it if the walk met a dead one. *)

val fire_write_waiters : t -> unit

val attach_readable : t -> Epoll.entry -> unit
(** Put the entry on the in-list unless it is already listed. *)

val attach_writable : t -> Epoll.entry -> unit

val watched_by : t -> Epoll.entry -> bool
(** The entry is physically on one of the two lists. *)
