(* Connection-oriented stream sockets for the simulated kernel.

   This module is pure mechanism, in the style of Pipe: each direction
   of a connection is a {!Byteq} (bounded byte queue, closed flags,
   one-shot readiness callbacks, epoll watch lists), exactly what a
   pipe is.  What is new relative to a pipe is that the two endpoints
   live in different processes and every byte crosses the simulated
   network: a successful [write] only *accepts* the data into the
   sender's window; delivery into the peer's receive buffer happens a
   transfer time plus half a round trip later, through
   [Devices.Net.send].  The write window is
   [capacity - delivered - in flight], so a writer stalls exactly when
   the receiver is slow to drain — TCP-style backpressure with a fixed
   window.

   Determinism: the net device of the simulated machine carries no
   jitter, the event queue breaks timestamp ties in insertion order,
   and each delivery lands the oldest chunk on the wire, so bytes
   arrive in the order they were written and a whole run is a pure
   function of the workload's seeds. *)

module Net = Sunos_hw.Devices.Net
module Time = Sunos_sim.Time

(* One direction of a connection.  [wire] holds the chunks accepted
   from the writer and still on the wire; [stall_until] defers their
   delivery (fault injection: the reader stopped draining). *)
type dir = Byteq.t

type conn = {
  net : Net.t;
  c2s : dir;  (* client -> server *)
  s2c : dir;  (* server -> client *)
  mutable reset : bool;
}

type side = Client | Server
type endpoint = { conn : conn; side : side }

type listener = {
  lname : string;
  backlog : int;
  capacity : int;  (* per-direction buffer size of accepted connections *)
  pending : endpoint Queue.t;  (* established, not yet accepted *)
  mutable accept_waiters : (unit -> unit) list;
  mutable accept_watches : Epoll.entry list;  (* epoll in-list *)
  mutable lclosed : bool;
  registry : registry;
}

and registry = (string, listener) Hashtbl.t

let default_capacity = 8192
let create_registry () : registry = Hashtbl.create 16

let fire_read_waiters = Byteq.fire_read_waiters
let fire_write_waiters = Byteq.fire_write_waiters

(* ---- endpoints ------------------------------------------------------ *)

let outgoing ep = match ep.side with Client -> ep.conn.c2s | Server -> ep.conn.s2c
let incoming ep = match ep.side with Client -> ep.conn.s2c | Server -> ep.conn.c2s

(* EOF is ordered after data: the close flag only becomes readable once
   every chunk accepted before the close has been delivered. *)
let at_eof (d : dir) = d.wclosed && Byteq.buffered d = 0 && d.wire = []
let buffered ep = Byteq.buffered (incoming ep)
let window ep = Byteq.window (outgoing ep)

let readable ep =
  ep.conn.reset || buffered ep > 0 || at_eof (incoming ep)

let writable ep =
  ep.conn.reset || (outgoing ep).rclosed || window ep > 0

let peer_closed ep = (incoming ep).wclosed

let read ep ~len =
  if ep.conn.reset then `Reset
  else
    let d = incoming ep in
    let n = min len (Byteq.buffered d) in
    if n > 0 then begin
      let out = Byteq.take d n in
      (* the window just opened: let the peer's writers at it *)
      fire_write_waiters d;
      `Data out
    end
    else if at_eof d then `Eof
    else `Empty

(* Delivery completion: runs off the event queue a transfer time + half
   an RTT after a write was accepted, and lands the OLDEST chunk on the
   wire.  A chunk's transfer time grows with its size, so a short chunk
   written just after a long one would otherwise land first; taking the
   head keeps the stream in byte order whatever the completion order.

   A stalled direction (fault injection: the peer stopped draining)
   defers the landing to [stall_until].  Order is preserved: every
   deferred landing happens at the same instant and the event queue
   breaks timestamp ties in insertion order.  The chunk stays on the
   wire across the deferral, so the sender's window remains closed — a
   stall is backpressure, not loss. *)
let rec arrive conn (d : dir) =
  let nnow = Net.now conn.net in
  if (not (d.rclosed || conn.reset)) && Time.(nnow < d.stall_until) then
    Net.delay conn.net (Time.diff d.stall_until nnow) (fun () -> arrive conn d)
  else
    match d.wire with
    | [] -> ()
    | chunk :: rest ->
        d.wire <- rest;
        if not (d.rclosed || conn.reset) then begin
          Byteq.push d chunk;
          fire_read_waiters d
        end
        else if rest = [] && d.wclosed then
          (* last straggler of an already-closed stream: readers blocked
             for the ordered EOF can now see it *)
          fire_read_waiters d

let stall ep ~until =
  let d = outgoing ep in
  d.stall_until <- Time.max d.stall_until until

(* Abortive teardown from the outside (fault injection: a mid-stream
   RST).  Both streams die instantly; every waiter is fired so blocked
   readers, writers and pollers re-examine the endpoint and observe the
   reset. *)
let abort ep =
  let c = ep.conn in
  if not c.reset then begin
    c.reset <- true;
    Byteq.clear c.c2s;
    Byteq.clear c.s2c;
    fire_read_waiters c.c2s;
    fire_write_waiters c.c2s;
    fire_read_waiters c.s2c;
    fire_write_waiters c.s2c
  end

let write ep data =
  if ep.conn.reset || (outgoing ep).rclosed then `Reset
  else
    let d = outgoing ep in
    let n = min (Byteq.window d) (String.length data) in
    if n = 0 then `Full
    else begin
      let chunk =
        if n = String.length data then data else String.sub data 0 n
      in
      d.wire <- d.wire @ [ chunk ];
      let conn = ep.conn in
      Net.send conn.net ~bytes_:n ~on_complete:(fun () -> arrive conn d);
      `Accepted n
    end

let close ep =
  let out = outgoing ep and inc = incoming ep in
  if not (out.wclosed && inc.rclosed) then begin
    out.wclosed <- true;
    inc.rclosed <- true;
    (* closing with undelivered inbound data is an abortive close: the
       peer learns nobody read its bytes (RST), both streams die *)
    if Byteq.buffered inc > 0 || inc.wire <> [] then begin
      ep.conn.reset <- true;
      Byteq.clear inc;
      Byteq.clear out
    end;
    fire_read_waiters out;
    fire_write_waiters out;
    fire_read_waiters inc;
    fire_write_waiters inc
  end

let on_readable ep f =
  if readable ep then f ()
  else
    let d = incoming ep in
    d.read_waiters <- f :: d.read_waiters

let on_writable ep f =
  if writable ep then f ()
  else
    let d = outgoing ep in
    d.write_waiters <- f :: d.write_waiters

(* Epoll entries go on the lists without a readiness check: the epoll
   layer performs its own level check when an interest is added or
   re-armed, and only the subsequent transitions come through here.
   Splitting it this way is what makes the lost-wakeup argument local
   (see DESIGN.md). *)
let attach_readable ep e = Byteq.attach_readable (incoming ep) e
let attach_writable ep e = Byteq.attach_writable (outgoing ep) e

let watched_by ep e =
  Byteq.watched_by (incoming ep) e || Byteq.watched_by (outgoing ep) e

(* ---- listeners ------------------------------------------------------ *)

let listen registry ~name ~backlog ?(capacity = default_capacity) () =
  if Hashtbl.mem registry name then Error `Addr_in_use
  else begin
    let l =
      {
        lname = name;
        backlog = max 1 backlog;
        capacity;
        pending = Queue.create ();
        accept_waiters = [];
        accept_watches = [];
        lclosed = false;
        registry;
      }
    in
    Hashtbl.replace registry name l;
    Ok l
  end

let lookup registry name : listener option = Hashtbl.find_opt registry name
let listener_closed l = l.lclosed
let listener_name l = l.lname
let pending_count l = Queue.length l.pending
let acceptable l = l.lclosed || not (Queue.is_empty l.pending)

let fire_accept_waiters l =
  let ws = List.rev l.accept_waiters in
  l.accept_waiters <- [];
  List.iter (fun f -> f ()) ws;
  if l.accept_watches <> [] && Epoll.fire In l.accept_watches then
    l.accept_watches <- Epoll.prune In l.accept_watches

(* SYN arrival: admit a connection if the listener still exists and the
   backlog has room.  Returns the client endpoint; the matching server
   endpoint waits on the pending queue for an accept. *)
let try_admit l ~net =
  if l.lclosed || Queue.length l.pending >= l.backlog then None
  else begin
    let conn =
      {
        net;
        c2s = Byteq.create l.capacity;
        s2c = Byteq.create l.capacity;
        reset = false;
      }
    in
    Queue.add { conn; side = Server } l.pending;
    fire_accept_waiters l;
    Some { conn; side = Client }
  end

let accept l = Queue.take_opt l.pending

let on_acceptable l f =
  if acceptable l then f () else l.accept_waiters <- f :: l.accept_waiters

let attach_acceptable l e =
  l.accept_watches <- Epoll.attach In e l.accept_watches

let accept_watched_by l e = List.memq e l.accept_watches

let close_listener l =
  if not l.lclosed then begin
    l.lclosed <- true;
    Hashtbl.remove l.registry l.lname;
    (* connections sitting in the backlog were never accepted: abort
       them so the far side sees a reset rather than a silent hang *)
    Queue.iter close l.pending;
    Queue.clear l.pending;
    fire_accept_waiters l
  end

(* A socketpair without the listen/connect dance — for shims and tests. *)
let pair ~net ?(capacity = default_capacity) () =
  let conn =
    {
      net;
      c2s = Byteq.create capacity;
      s2c = Byteq.create capacity;
      reset = false;
    }
  in
  ({ conn; side = Client }, { conn; side = Server })
