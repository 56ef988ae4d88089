(** Kernel pipe: a bounded byte buffer with readiness callbacks.

    The pipe knows nothing about LWPs; the syscall layer registers
    one-shot callbacks that it uses to wake sleepers.  This keeps the
    module free of kernel-type cycles and reusable by [poll]. *)

type t

val default_capacity : int

val create : ?capacity:int -> unit -> t

val read : t -> len:int -> string
(** Up to [len] buffered bytes; [""] when empty (caller blocks/polls). *)

val write : t -> string -> int
(** Bytes accepted (bounded by free space); 0 when full. *)

val readable : t -> bool
(** Data buffered, or no writer left (EOF is readable). *)

val writable : t -> bool
val buffered : t -> int

val close_read : t -> unit
val close_write : t -> unit
val read_closed : t -> bool
val write_closed : t -> bool

val on_readable : t -> (unit -> unit) -> unit
(** One-shot: fires once at the next transition that could make a reader
    make progress (data written or writers closed), then is dropped. *)

val on_writable : t -> (unit -> unit) -> unit

(** {1 Epoll watch lists}

    Same contract as {!Socket.attach_readable}: the entry is notified at
    every transition while it is live, registration performs no
    readiness check, spurious firings are allowed. *)

val attach_readable : t -> Epoll.entry -> unit
val attach_writable : t -> Epoll.entry -> unit

val watched_by : t -> Epoll.entry -> bool
(** The entry is on one of this pipe's watch lists. *)
