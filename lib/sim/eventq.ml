(* The event queue: one indexed binary min-heap.

   Entries are handles ordered by (time, seq).  [seq] is a global
   scheduling counter, so the key is a total order: two events at the
   same instant fire in the order they were scheduled (FIFO), whatever
   shape the heap happens to have.  Each handle records its own slot in
   the heap array, so [cancel] takes it out at once — there is no dead
   entry to skip or compact later.  Scheduling allocates the handle and
   nothing else; peeking, popping and cancelling allocate nothing. *)

type handle = {
  time : Time.t;
  seq : int;
  action : unit -> unit;
  mutable pos : int;  (* slot in [owner.heap]; -1 once fired or cancelled *)
  owner : t;
}

and t = {
  mutable heap : handle array;  (* slots [0, size) hold the heap *)
  mutable size : int;
  mutable now : Time.t;
  mutable next_seq : int;
  mutable fired_count : int;
  mutable drain_hooks : (unit -> unit) list;
      (* fired by [run] when the queue empties; diagnostic observers
         (e.g. the thread sanitizer's hang check).  Kept in REVERSE
         registration order — consing is O(1) per registration — and
         reversed once at fire time *)
  mutable run_horizon : Time.t option;
      (* the [until] of the [run] currently draining this queue, if
         any: [next_time] clamps to it so run-ahead accounting never
         outruns a horizon-limited run *)
}

(* Fills every slot at or past [size], so the array never keeps a fired
   or cancelled handle — and the closure it carries — alive.  Never
   queued, so never mutated: one is shared by all queues. *)
let vacant =
  let nobody =
    { heap = [||]; size = 0; now = Time.zero; next_seq = 0; fired_count = 0;
      drain_hooks = []; run_horizon = None }
  in
  { time = Time.zero; seq = -1; action = ignore; pos = -1; owner = nobody }

let initial_capacity = 64

let create () =
  {
    heap = Array.make initial_capacity vacant;
    size = 0;
    now = Time.zero;
    next_seq = 0;
    fired_count = 0;
    drain_hooks = [];
    run_horizon = None;
  }

let on_drain q f = q.drain_hooks <- f :: q.drain_hooks

let now q = q.now

let[@inline] before a b =
  let c = Time.compare a.time b.time in
  c < 0 || (c = 0 && a.seq < b.seq)

let[@inline] place heap h i =
  Array.unsafe_set heap i h;
  h.pos <- i

(* Move [h] from the hole at [i] towards the root until its parent is
   earlier. *)
let rec sift_up heap h i =
  if i = 0 then place heap h 0
  else
    let parent = (i - 1) / 2 in
    let p = Array.unsafe_get heap parent in
    if before h p then begin
      place heap p i;
      sift_up heap h parent
    end
    else place heap h i

(* Move [h] from the hole at [i] towards the leaves until both children
   are later. *)
let rec sift_down heap size h i =
  let l = (2 * i) + 1 in
  if l >= size then place heap h i
  else
    let r = l + 1 in
    let c =
      if r < size && before (Array.unsafe_get heap r) (Array.unsafe_get heap l)
      then r
      else l
    in
    let ch = Array.unsafe_get heap c in
    if before ch h then begin
      place heap ch i;
      sift_down heap size h c
    end
    else place heap h i

let at q time action =
  if Time.(time < q.now) then
    invalid_arg "Eventq.at: scheduling in the past";
  let n = q.size in
  if n = Array.length q.heap then begin
    let bigger = Array.make (2 * n) vacant in
    Array.blit q.heap 0 bigger 0 n;
    q.heap <- bigger
  end;
  let h = { time; seq = q.next_seq; action; pos = n; owner = q } in
  q.next_seq <- q.next_seq + 1;
  q.size <- n + 1;
  sift_up q.heap h n;
  h

let after q d action = at q (Time.add q.now d) action

(* Take the entry at slot [i] out: the last entry fills the hole and
   moves up or down to where it belongs. *)
let remove q i =
  let heap = q.heap in
  let last = q.size - 1 in
  let moved = Array.unsafe_get heap last in
  Array.unsafe_set heap last vacant;
  q.size <- last;
  if i < last then
    if i > 0 && before moved (Array.unsafe_get heap ((i - 1) / 2)) then
      sift_up heap moved i
    else sift_down heap last moved i

let cancel h =
  if h.pos >= 0 then begin
    remove h.owner h.pos;
    h.pos <- -1
  end

let is_pending h = h.pos >= 0

let inert = vacant

(* [h] is the root. *)
let fire q h =
  remove q 0;
  h.pos <- -1;
  q.now <- h.time;
  q.fired_count <- q.fired_count + 1;
  h.action ()

let run_one q =
  if q.size = 0 then false
  else begin
    fire q (Array.unsafe_get q.heap 0);
    true
  end

(* Earliest instant at which anything can happen: the first pending
   event, clamped to the horizon of the [run] currently draining us.
   [None] means nothing is pending and no horizon binds — the caller may
   run ahead arbitrarily far. *)
let next_time q =
  if q.size = 0 then q.run_horizon
  else
    let t = (Array.unsafe_get q.heap 0).time in
    match q.run_horizon with
    | None -> Some t
    | Some h -> Some (Time.min t h)

let run ?until ?max_events q =
  let saved_horizon = q.run_horizon in
  (match until with Some _ -> q.run_horizon <- until | None -> ());
  Fun.protect ~finally:(fun () -> q.run_horizon <- saved_horizon)
  @@ fun () ->
  let budget = match max_events with Some m -> m | None -> max_int in
  let fired = ref 0 in
  let stop = ref false in
  while (not !stop) && !fired < budget && q.size > 0 do
    let h = Array.unsafe_get q.heap 0 in
    match until with
    | Some horizon when Time.(h.time > horizon) ->
        q.now <- horizon;
        stop := true
    | _ ->
        fire q h;
        incr fired
  done;
  (* If we stopped on the horizon with an empty queue, still advance. *)
  (match until with
  | Some horizon when q.size = 0 && Time.(q.now < horizon) -> q.now <- horizon
  | _ -> ());
  (* Queue drained (not horizon- or budget-limited): let observers look
     at the stalled machine.  A hook may schedule new events; we do not
     re-enter the loop for them — this is a post-mortem, not a phase. *)
  if q.drain_hooks <> [] && q.size = 0 then
    List.iter (fun f -> f ()) (List.rev q.drain_hooks)

let pending_count q = q.size
let events_fired q = q.fired_count
