(* The epoll kernel object: an interest set plus a bounded ready queue.

   The legacy [poll] syscall re-examines every fd in its set on every
   wakeup — O(connections) work per event, which is exactly the wall the
   C10k literature hit.  This object inverts the direction: each
   interest entry sits on the watch lists of its fd's object (a
   {!Byteq} direction or a listener), and the object pushes the entry
   onto the ready queue at the state transition itself, so a wait costs
   O(ready), independent of how many connections are held.

   The entry is its own watch: the object's lists hold entries, not
   closures, so an idle interest costs one record and one cons per
   list.  [e_in_listed]/[e_out_listed] say the entry is physically on
   its object's in-list/out-list, which keeps it on each list at most
   once.  An in-watch is live iff [not e_dead && e_want_in] (out
   likewise); dead ones stay on the list until the next firing walks
   past them and prunes.

   Edge-triggered with explicit re-arm: an entry is queued at most once
   (the [e_queued] flag bounds the ready queue by the interest size and
   counts coalesced edges), and a ONESHOT entry disarms on delivery
   until the consumer re-arms it with ctl(MOD).  Readiness is only
   {e level}-checked at arm time (add and re-arm) — that check, plus the
   fact that watch lists fire on every subsequent transition, is the
   lost-wakeup argument (DESIGN.md).  Spurious readiness is allowed:
   consumers drain with non-blocking ops until [`Again].

   Like Socket and Pipe this module is pure mechanism: no LWPs, no
   costs, no errnos.  The syscall layer validates fds against the fdtab
   at delivery time, which is how entries whose fd was closed without a
   ctl(DEL) get collected. *)

type entry = {
  e_owner : t;
  e_fd : int;
  mutable e_want_in : bool;
  mutable e_want_out : bool;
  mutable e_oneshot : bool;
  mutable e_armed : bool;  (* eligible to queue; ONESHOT clears on delivery *)
  mutable e_queued : bool;  (* sitting in [ready]: dedups edges *)
  mutable e_dead : bool;  (* removed from interest; skipped at pop *)
  mutable e_in_listed : bool;  (* physically on the object's in-list *)
  mutable e_out_listed : bool;  (* physically on the object's out-list *)
}

and t = {
  id : int;  (* the owning fd number, for /proc and traces *)
  interest : (int, entry) Hashtbl.t;
  ready : entry Queue.t;
  mutable wait_waiters : (unit -> unit) list;  (* one-shot, socket-style *)
  mutable closed : bool;
  (* stats, surfaced via procfs pp_epoll and the net_server debrief *)
  mutable edges : int;  (* entries enqueued *)
  mutable coalesced : int;  (* edges absorbed by an already-queued entry *)
  mutable wakeups : int;  (* blocked waiters woken *)
  mutable delivered : int;  (* entries handed to epoll_wait callers *)
}

let create ~id =
  {
    id;
    interest = Hashtbl.create 64;
    ready = Queue.create ();
    wait_waiters = [];
    closed = false;
    edges = 0;
    coalesced = 0;
    wakeups = 0;
    delivered = 0;
  }

let id t = t.id
let closed t = t.closed
let find t fd = Hashtbl.find_opt t.interest fd
let interest_count t = Hashtbl.length t.interest
let ready_depth t = Queue.length t.ready
let edges t = t.edges
let coalesced t = t.coalesced
let wakeups t = t.wakeups
let delivered t = t.delivered

let fire_waiters t =
  match t.wait_waiters with
  | [] -> ()
  | ws ->
      t.wait_waiters <- [];
      t.wakeups <- t.wakeups + List.length ws;
      List.iter (fun f -> f ()) (List.rev ws)

let add_waiter t f = t.wait_waiters <- f :: t.wait_waiters

let register t ~fd ~want_in ~want_out ~oneshot =
  let e =
    {
      e_owner = t;
      e_fd = fd;
      e_want_in = want_in;
      e_want_out = want_out;
      e_oneshot = oneshot;
      e_armed = true;
      e_queued = false;
      e_dead = false;
      e_in_listed = false;
      e_out_listed = false;
    }
  in
  Hashtbl.replace t.interest fd e;
  e

(* An edge (or an arm-time level check) on [e]: queue it unless the
   entry is disarmed, already queued, dead, or the epoll is gone.  The
   disarmed case is NOT a lost wakeup — re-arming re-checks readiness. *)
let note_edge e =
  let t = e.e_owner in
  if not (t.closed || e.e_dead || not e.e_armed) then
    if e.e_queued then t.coalesced <- t.coalesced + 1
    else begin
      e.e_queued <- true;
      Queue.add e t.ready;
      t.edges <- t.edges + 1;
      fire_waiters t
    end

(* Remove [e] from the interest set.  It may still sit in the ready
   queue; [pop] skips dead entries, which is the "interest removal with
   pending readiness" case.  It stays on its object's watch lists until
   the next firing there prunes it. *)
let kill_entry e =
  if not e.e_dead then begin
    e.e_dead <- true;
    Hashtbl.remove e.e_owner.interest e.e_fd
  end

let rec pop t =
  match Queue.take_opt t.ready with
  | None -> None
  | Some e ->
      e.e_queued <- false;
      if e.e_dead then pop t else Some e

(* Called by the syscall layer when it hands [e] to an epoll_wait
   caller: ONESHOT entries disarm until ctl(MOD) re-arms them. *)
let note_delivered e =
  e.e_owner.delivered <- e.e_owner.delivered + 1;
  if e.e_oneshot then e.e_armed <- false

let close t =
  if not t.closed then begin
    t.closed <- true;
    Hashtbl.iter (fun _ e -> e.e_dead <- true) t.interest;
    Hashtbl.reset t.interest;
    Queue.clear t.ready;
    (* a waiter blocked on a concurrently-closed epoll fd re-checks and
       fails out rather than sleeping forever *)
    fire_waiters t
  end

(* ---- watch lists ---------------------------------------------------- *)

(* Objects keep two lists of entries: the in-list fires on transitions
   that may make the object readable (or acceptable), the out-list on
   those that may make it writable. *)
type side = In | Out

let live side e =
  (not e.e_dead) && match side with In -> e.e_want_in | Out -> e.e_want_out

let rec walk side stale = function
  | [] -> stale
  | e :: rest ->
      if live side e then begin
        note_edge e;
        walk side stale rest
      end
      else walk side true rest

let fire side l = walk side false l

let prune side l =
  List.filter
    (fun e ->
      live side e
      || begin
           (match side with
           | In -> e.e_in_listed <- false
           | Out -> e.e_out_listed <- false);
           false
         end)
    l

let attach side e l =
  match side with
  | In when not e.e_in_listed ->
      e.e_in_listed <- true;
      e :: l
  | Out when not e.e_out_listed ->
      e.e_out_listed <- true;
      e :: l
  | In | Out -> l
