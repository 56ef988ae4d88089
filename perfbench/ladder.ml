(* The layer-cost ladder: one rung per layer, each booting a fresh kernel
   and looping on one public function.  A rung reports host ns, minor
   words and fired events per call, measured from inside the simulated
   process around the loop, so boot and teardown are not counted.
   Words and events are exact; run.py takes the median host ns of three
   runs, at the reference host speed. *)

module Eventq = Sunos_sim.Eventq
module Faultgen = Sunos_sim.Faultgen
module Histogram = Sunos_sim.Histogram
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Machine = Sunos_hw.Machine
module Libthread = Sunos_threads.Libthread
module T = Sunos_threads.Thread
module Mutex = Sunos_threads.Mutex
module Semaphore = Sunos_threads.Semaphore
module Rwlock = Sunos_threads.Rwlock

type sample = { ns : float; words : float; events : int }

type rung = {
  name : string;  (** the metric prefix, e.g. [syscall.null] *)
  what : string;  (** the call being timed *)
  ops : int;
  measure : unit -> sample;  (** one run: totals over [ops] calls *)
}

let boot () =
  let k = Kernel.boot ~chaos:Faultgen.off () in
  Kernel.set_tracing k false;
  k

(* Time [f] from where it runs, which may be inside a simulated process:
   every event the kernel fires while [f] is suspended is counted too. *)
let timed k f =
  let q = (Kernel.machine k).Machine.eventq in
  let e0 = Eventq.events_fired q in
  let w0 = Gc.minor_words () in
  let t0 = Host.cpu_s () in
  f ();
  let t1 = Host.cpu_s () in
  let w1 = Gc.minor_words () in
  { ns = (t1 -. t0) *. 1e9; words = w1 -. w0; events = Eventq.events_fired q - e0 }

(* Boot, run [body] as the main of one process ([threads]: under the
   threads library), and return what [body] measured. *)
let in_process ~threads body =
  let k = boot () in
  let out = ref None in
  let main () = out := Some (body k) in
  ignore
    (Kernel.spawn k ~name:"rung"
       ~main:(if threads then Libthread.boot main else main));
  Kernel.run k;
  match !out with Some s -> s | None -> failwith "rung did not finish"

let loop n f () =
  for _ = 1 to n do
    f ()
  done

(* [setup] runs in the process and returns the call to loop on. *)
let simple ~threads ~ops setup () =
  in_process ~threads (fun k ->
      let f = setup () in
      timed k (loop ops f))

let eventq ~ops () =
  let k = boot () in
  let q = (Kernel.machine k).Machine.eventq in
  let left = ref ops in
  let rec fire () =
    decr left;
    if !left > 0 then ignore (Eventq.at q (Int64.add (Eventq.now q) 1L) fire)
  in
  ignore (Eventq.at q 1L fire);
  timed k (fun () -> Kernel.run k)

let yield_pair ~ops () =
  in_process ~threads:true (fun k ->
      let half = ops / 2 in
      timed k (fun () ->
          let spin () = loop half T.yield () in
          let a = T.create ~flags:[ T.THREAD_WAIT ] spin in
          let b = T.create ~flags:[ T.THREAD_WAIT ] spin in
          ignore (T.wait ~thread:a ());
          ignore (T.wait ~thread:b ())))

let create_join () =
  let f = T.create ~flags:[ T.THREAD_WAIT ] ignore in
  ignore (T.wait ~thread:f ())

let mutex () =
  let m = Mutex.create () in
  fun () ->
    Mutex.enter m;
    Mutex.exit m

let semaphore () =
  let s = Semaphore.create ~count:0 () in
  fun () ->
    Semaphore.v s;
    Semaphore.p s

let rwlock () =
  let l = Rwlock.create () in
  fun () ->
    Rwlock.enter l Rwlock.Reader;
    Rwlock.exit l

(* One request/reply exchange over a connected socket pair, both ends
   driven by the same LWP. *)
let socket_rtt () =
  let lfd = Uctx.listen ~name:"rung" ~backlog:1 in
  let c = Uctx.connect "rung" in
  let s = Uctx.accept lfd in
  let req = String.make 64 'q' and rep = String.make 64 'r' in
  fun () ->
    Uctx.write_all c req;
    ignore (Uctx.read_exact s ~len:64);
    Uctx.write_all s rep;
    ignore (Uctx.read_exact c ~len:64)

(* A ONESHOT interest over a pipe holding unread data: each re-arm finds
   the fd ready, so every wait returns one entry without blocking. *)
let epoll_ready () =
  let ep = Uctx.epoll_create () in
  let r, w = Uctx.pipe () in
  ignore (Uctx.write w "x");
  Uctx.epoll_add ep r ~want_in:true ~oneshot:true ();
  fun () ->
    Uctx.epoll_mod ep r ~want_in:true ~oneshot:true ();
    match Uctx.epoll_wait ep ~max_events:1 with
    | [ _ ] -> ()
    | _ -> failwith "epoll rung: expected one ready entry"

let histogram ~ops () =
  let h = Histogram.create "rung" in
  let values = Array.init 1024 (fun i -> Int64.of_int ((i * 7919) land 0xfffff)) in
  let w0 = Gc.minor_words () in
  let t0 = Host.cpu_s () in
  for i = 1 to ops do
    Histogram.add h (Array.unsafe_get values (i land 1023))
  done;
  let t1 = Host.cpu_s () in
  { ns = (t1 -. t0) *. 1e9; words = Gc.minor_words () -. w0; events = 0 }

let rung name what ops measure = { name; what; ops; measure = measure ~ops }

let rungs =
  [
    rung "eventq.fire" "Eventq.at + run" 200_000 eventq;
    rung "syscall.null" "Uctx.getpid" 100_000 (fun ~ops ->
        simple ~threads:false ~ops (fun () () -> ignore (Uctx.getpid ())));
    rung "uctx.charge" "Uctx.charge_us 1 (coalesced)" 1_000_000 (fun ~ops ->
        simple ~threads:false ~ops (fun () () -> Uctx.charge_us 1));
    rung "libthread.switch" "Thread.yield, two threads" 200_000 yield_pair;
    rung "libthread.create_join" "Thread.create + wait" 20_000 (fun ~ops ->
        simple ~threads:true ~ops (fun () -> create_join));
    rung "mutex.enter_exit" "Mutex.enter + exit" 500_000 (fun ~ops ->
        simple ~threads:true ~ops mutex);
    rung "semaphore.pv" "Semaphore.v + p" 500_000 (fun ~ops ->
        simple ~threads:true ~ops semaphore);
    rung "rwlock.shared" "Rwlock.enter Reader + exit" 500_000 (fun ~ops ->
        simple ~threads:true ~ops rwlock);
    rung "socket.rtt" "64-byte write/read round trip" 10_000 (fun ~ops ->
        simple ~threads:false ~ops socket_rtt);
    rung "epoll.wait" "epoll_mod + epoll_wait, entry ready" 50_000 (fun ~ops ->
        simple ~threads:false ~ops epoll_ready);
    rung "histogram.add" "Histogram.add" 500_000 histogram;
  ]
