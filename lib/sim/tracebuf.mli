(** Bounded execution trace.

    The kernel and the threads library emit tagged trace records; tests
    assert on them (e.g. the Figure 2 pick/run/save/pick sequence) and the
    CLI prints them.  The buffer is a ring: old records are dropped first. *)

type record = { time : Time.t; tag : string; msg : string }

type t

val create : ?capacity:int -> unit -> t
(** Default capacity: 65536 records. *)

val emit : t -> time:Time.t -> tag:string -> string -> unit

val emitf :
  t -> time:Time.t -> tag:string -> ('a, Format.formatter, unit, unit) format4 -> 'a

val records : t -> record list
(** Oldest first. *)

val find : t -> tag:string -> record list
val clear : t -> unit
val dropped : t -> int
val pp : Format.formatter -> t -> unit

val enabled : t -> bool
val set_enabled : t -> bool -> unit
(** Disabling makes [emit] a no-op; benchmarks disable tracing. *)

val interested : t -> tag:string -> bool
(** [enabled] and (when an interest set is installed) [tag] is in it.
    {!emitf} checks this before formatting, but a skipped [emitf] still
    allocates one [ikfprintf] closure per argument; call sites on hot
    paths test [interested] themselves first, so an unread record costs
    no allocation.  Allocates nothing. *)

val set_interest : t -> string list option -> unit
(** [Some tags] records only those tags; [None] (the default) records
    every tag.  Tags are interned, so the ring shares one string per
    distinct tag. *)
