(* One direction of a byte stream: a bounded byte queue with close
   flags, one-shot waiters and epoll watch lists.  A pipe is one of
   these; a socket connection is two, one per direction.

   The queue is a string and an offset: the bytes are
   [data.[doff ..]], and the empty queue is always [("", 0)], so an
   idle stream holds no buffer at all.  A push into an empty queue
   keeps the writer's chunk, a read of everything returns it without a
   copy, and only a push into a non-empty queue concatenates — which
   the window ([capacity]) bounds. *)

module Time = Sunos_sim.Time

type t = {
  capacity : int;
  mutable data : string;
  mutable doff : int;  (* bytes of [data] already read *)
  mutable wire : string list;  (* accepted, not yet landed; oldest first *)
  mutable wclosed : bool;  (* writer closed: EOF once the queue drains *)
  mutable rclosed : bool;  (* reader closed: further writes fail *)
  mutable stall_until : Time.t;  (* fault injection: reader not draining *)
  mutable read_waiters : (unit -> unit) list;
  mutable write_waiters : (unit -> unit) list;
  mutable read_watches : Epoll.entry list;  (* persistent: epoll edges *)
  mutable write_watches : Epoll.entry list;
}

let create capacity =
  {
    capacity;
    data = "";
    doff = 0;
    wire = [];
    wclosed = false;
    rclosed = false;
    stall_until = Time.zero;
    read_waiters = [];
    write_waiters = [];
    read_watches = [];
    write_watches = [];
  }

let buffered d = String.length d.data - d.doff

let rec sum_lengths acc = function
  | [] -> acc
  | c :: rest -> sum_lengths (acc + String.length c) rest

let window d = d.capacity - buffered d - sum_lengths 0 d.wire

let clear d =
  d.data <- "";
  d.doff <- 0

let push d chunk =
  if buffered d = 0 then begin
    d.data <- chunk;
    d.doff <- 0
  end
  else begin
    let rest = buffered d and n = String.length chunk in
    let b = Bytes.create (rest + n) in
    Bytes.blit_string d.data d.doff b 0 rest;
    Bytes.blit_string chunk 0 b rest n;
    d.data <- Bytes.unsafe_to_string b;
    d.doff <- 0
  end

(* Remove and return the first [n] bytes, [0 < n <= buffered d]. *)
let take d n =
  let len = String.length d.data in
  if d.doff = 0 && n = len then begin
    let s = d.data in
    d.data <- "";
    s
  end
  else begin
    let s = String.sub d.data d.doff n in
    if d.doff + n = len then clear d else d.doff <- d.doff + n;
    s
  end

(* Waiters are pushed in reverse and fired oldest-first: registration
   must be O(1) because a poller re-registers on every idle fd it
   watches on every poll cycle — appending to the list tail would make
   an idle connection cost quadratic time between readiness events.
   One-shot waiters fire before epoll watches, so the pre-epoll blocking
   paths observe exactly the wakeup order they always have. *)
let fire_read_waiters d =
  let ws = List.rev d.read_waiters in
  d.read_waiters <- [];
  List.iter (fun f -> f ()) ws;
  if d.read_watches <> [] && Epoll.fire In d.read_watches then
    d.read_watches <- Epoll.prune In d.read_watches

let fire_write_waiters d =
  let ws = List.rev d.write_waiters in
  d.write_waiters <- [];
  List.iter (fun f -> f ()) ws;
  if d.write_watches <> [] && Epoll.fire Out d.write_watches then
    d.write_watches <- Epoll.prune Out d.write_watches

let attach_readable d e = d.read_watches <- Epoll.attach In e d.read_watches
let attach_writable d e = d.write_watches <- Epoll.attach Out e d.write_watches

let watched_by d e = List.memq e d.read_watches || List.memq e d.write_watches
