(* The traced run's instruments, all on the host side of the program:
   named spans around set-up, the run call and the output checks, and a
   wrapper around a thread model that records every thread call the
   workload makes through it.  Everything stays in memory until the run
   ends; the simulated machine sees none of it. *)

let now = Unix.gettimeofday

type span = { name : string; t0 : float; t1 : float }

let spans : span list ref = ref []

let span name f =
  let t0 = now () in
  let r = f () in
  spans := { name; t0; t1 = now () } :: !spans;
  r

(* Per-call tallies.  A call that returns before any other wrapped call
   has begun ran without suspending: its host time is busy time.  A call
   during which another wrapped call began was suspended, and is
   reported as a wait. *)
type call = {
  call : string;
  mutable count : int;
  mutable busy_s : float;
  mutable waits : int;
  mutable wait_s : float;
}

let new_call call = { call; count = 0; busy_s = 0.; waits = 0; wait_s = 0. }
let c_spawn = new_call "spawn"
let c_join = new_call "join"
let c_yield = new_call "yield"
let c_mu_lock = new_call "mu_lock"
let c_mu_unlock = new_call "mu_unlock"
let c_sem_p = new_call "sem_p"
let c_sem_v = new_call "sem_v"

let calls =
  [ c_spawn; c_join; c_yield; c_mu_lock; c_mu_unlock; c_sem_p; c_sem_v ]

let started = ref 0

let record c f =
  incr started;
  let seq = !started in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  c.count <- c.count + 1;
  if !started = seq then c.busy_s <- c.busy_s +. dt
  else begin
    c.waits <- c.waits + 1;
    c.wait_s <- c.wait_s +. dt
  end;
  r

module Wrap (M : Sunos_baselines.Model.S) : Sunos_baselines.Model.S = struct
  let name = M.name
  let boot = M.boot

  type thread = M.thread

  let spawn f = record c_spawn (fun () -> M.spawn f)
  let join t = record c_join (fun () -> M.join t)
  let yield () = record c_yield M.yield
  let set_concurrency = M.set_concurrency

  module Mu = struct
    type t = M.Mu.t

    let create = M.Mu.create
    let lock m = record c_mu_lock (fun () -> M.Mu.lock m)
    let unlock m = record c_mu_unlock (fun () -> M.Mu.unlock m)
  end

  module Sem = struct
    type t = M.Sem.t

    let create = M.Sem.create
    let p s = record c_sem_p (fun () -> M.Sem.p s)
    let v s = record c_sem_v (fun () -> M.Sem.v s)
  end
end
