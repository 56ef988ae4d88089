(** Connection-oriented stream sockets (kernel mechanism).

    A connection is a pair of bounded byte streams between two endpoints,
    one per direction.  A [write] accepts at most
    [capacity - buffered - in flight] bytes into the sender's window and
    delivers them into the peer's receive buffer after a transfer time
    plus half a network round trip ({!Sunos_hw.Devices.Net.send}); the
    window reopens only when the receiver drains — which is what gives a
    fast writer backpressure against a slow reader.  EOF is ordered
    after all in-flight data.  Closing an endpoint whose receive side
    still holds undelivered data aborts the connection: the peer's
    subsequent reads and writes fail with a reset.

    Listeners live in a per-kernel {!registry} under a string service
    name.  Connection admission happens when the (simulated) SYN arrives
    at the listener: if the listener is gone or its backlog is full the
    connect is refused, otherwise the server endpoint joins the pending
    queue until an [accept] collects it.

    Like {!Pipe}, this module is policy-free: no LWPs, no costs, no
    errnos — just state transitions and one-shot readiness callbacks the
    syscall layer builds blocking semantics from. *)

type endpoint
type listener
type registry

val create_registry : unit -> registry
val default_capacity : int

(** {1 Listeners} *)

val listen :
  registry ->
  name:string ->
  backlog:int ->
  ?capacity:int ->
  unit ->
  (listener, [ `Addr_in_use ]) result

val lookup : registry -> string -> listener option

val try_admit : listener -> net:Sunos_hw.Devices.Net.t -> endpoint option
(** Admission at SYN arrival.  [None] = refused (closed listener or full
    backlog); [Some client_ep] = the connection is established and its
    server endpoint queued for accept. *)

val accept : listener -> endpoint option
val acceptable : listener -> bool
val on_acceptable : listener -> (unit -> unit) -> unit
(** One-shot: fires when the pending queue is non-empty {e or} the
    listener closes (so blocked acceptors can fail out). *)

val close_listener : listener -> unit
(** Deregisters the name and aborts never-accepted pending connections. *)

val listener_closed : listener -> bool
val listener_name : listener -> string
val pending_count : listener -> int

(** {1 Endpoints} *)

val read : endpoint -> len:int -> [ `Data of string | `Eof | `Empty | `Reset ]
val write : endpoint -> string -> [ `Accepted of int | `Full | `Reset ]
val close : endpoint -> unit

val abort : endpoint -> unit
(** Abortive teardown (fault injection: mid-stream RST).  Both streams
    die instantly and every registered waiter fires, so blocked readers,
    writers and pollers observe the reset. *)

val stall : endpoint -> until:Sunos_sim.Time.t -> unit
(** Fault injection: the peer of [endpoint] stops draining — deliveries
    on the endpoint's outgoing direction are deferred to [until] (byte
    order preserved, window stays closed: a stall is backpressure, not
    loss). *)

val readable : endpoint -> bool
val writable : endpoint -> bool

val buffered : endpoint -> int
(** Bytes delivered to this endpoint and not yet read. *)

val window : endpoint -> int
(** Bytes this endpoint may still write: its outgoing capacity less what
    the peer has not read and what is still on the wire. *)

val peer_closed : endpoint -> bool
val on_readable : endpoint -> (unit -> unit) -> unit
val on_writable : endpoint -> (unit -> unit) -> unit

(** {1 Epoll watch lists}

    An {!Epoll.entry} attached here is notified ({!Epoll.note_edge}) at
    {e every} state transition that may have made the object ready
    (data delivery, window opening, EOF, reset, close) for as long as it
    is live ([not e_dead] and wanting that direction).  Attaching
    performs no readiness check — the epoll layer does its own level
    check at arm time, so the split of responsibility is: the lists
    carry edges, the subscriber handles the initial level and
    deduplicates.  Spurious firings are part of the contract.  An entry
    that is already on the list is not added again. *)

val attach_readable : endpoint -> Epoll.entry -> unit
val attach_writable : endpoint -> Epoll.entry -> unit

val attach_acceptable : listener -> Epoll.entry -> unit
(** Notified on pending-queue arrivals {e and} on listener close. *)

val watched_by : endpoint -> Epoll.entry -> bool
(** The entry is on one of this endpoint's watch lists. *)

val accept_watched_by : listener -> Epoll.entry -> bool

val pair :
  net:Sunos_hw.Devices.Net.t -> ?capacity:int -> unit -> endpoint * endpoint
(** A connected pair without the listen/connect handshake. *)
