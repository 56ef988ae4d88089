(* Allocation budget of the kernel's per-event path.

   Each case boots a kernel and loops one public call from inside a
   simulated process, measuring the minor words and fired events per
   call around the loop.  Both are deterministic, so the bounds are
   tight: words may exceed the closure-free path's figures by about 5%,
   and events must match exactly.  A closure put back on the path (a
   per-interval completion, a fin continuation, an unguarded trace
   call) costs several words per event and fails the bound. *)

module Eventq = Sunos_sim.Eventq
module Faultgen = Sunos_sim.Faultgen
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Machine = Sunos_hw.Machine

let calls = 2_000

type per_call = { words : float; events : float }

(* [trace]: [`Off] disables the trace ring; [`Filtered] enables it but
   records only a tag no kernel site emits. *)
let measure ?(trace = `Off) setup =
  let k = Kernel.boot ~chaos:Faultgen.off () in
  (match trace with
  | `Off -> Kernel.set_tracing k false
  | `Filtered ->
      Kernel.set_tracing k true;
      Kernel.set_trace_tags k (Some [ "unrelated" ]));
  let q = (Kernel.machine k).Machine.eventq in
  let out = ref None in
  let main () =
    let f = setup () in
    (* one warm-up call: first use may grow tables *)
    f ();
    let e0 = Eventq.events_fired q in
    let w0 = Gc.minor_words () in
    for _ = 1 to calls do
      f ()
    done;
    let w1 = Gc.minor_words () in
    let e1 = Eventq.events_fired q in
    out :=
      Some
        {
          words = (w1 -. w0) /. float calls;
          events = float (e1 - e0) /. float calls;
        }
  in
  ignore (Kernel.spawn k ~name:"hotpath" ~main);
  Kernel.run k;
  match !out with Some r -> r | None -> Alcotest.fail "loop did not finish"

let getpid () () = ignore (Uctx.getpid ())
let charge () () = Uctx.charge_us 1

(* One 64-byte request/reply over a connected socket pair, both ends
   driven by the same LWP.  Each read waits out the network delivery,
   so a call passes the sleep, wakeup and dispatch paths (and their
   trace sites) twice. *)
let socket_rtt () =
  let lfd = Uctx.listen ~name:"hotpath" ~backlog:1 in
  let c = Uctx.connect "hotpath" in
  let s = Uctx.accept lfd in
  let req = String.make 64 'q' and rep = String.make 64 'r' in
  fun () ->
    Uctx.write_all c req;
    ignore (Uctx.read_exact s ~len:64);
    Uctx.write_all s rep;
    ignore (Uctx.read_exact c ~len:64)

(* A ONESHOT interest over a pipe holding unread data: every re-arm
   finds the fd ready, so each wait returns one entry without
   blocking. *)
let epoll_ready () =
  let ep = Uctx.epoll_create () in
  let r, w = Uctx.pipe () in
  ignore (Uctx.write w "x");
  Uctx.epoll_add ep r ~want_in:true ~oneshot:true ();
  fun () ->
    Uctx.epoll_mod ep r ~want_in:true ~oneshot:true ();
    match Uctx.epoll_wait ep ~max_events:1 with
    | [ _ ] -> ()
    | _ -> Alcotest.fail "expected one ready entry"

(* Live heap of held connections: [n] connected socket pairs, each of
   which has carried one 64-byte request and reply and then idles with
   both ends registered for input in one epoll.  The words per
   connection are the slope of [Gc.stat] live words (after a full major
   collection) between [n] and [2n] held, which cancels the kernel's
   fixed footprint.  Deterministic: the same program state is measured
   every run.  A connection holds 85 words with string byte queues and
   epoll entries that are their own watches; with a [Buffer.t] per
   direction and a closure watch per interest it held 191, so the
   budget (5% over 85) also fails any return of either. *)
let held_words_per_conn n =
  let k = Kernel.boot ~chaos:Faultgen.off () in
  Kernel.set_tracing k false;
  let out = ref None in
  let main () =
    let ep = Uctx.epoll_create () in
    let lfd = Uctx.listen ~name:"held" ~backlog:1 in
    let req = String.make 64 'q' and rep = String.make 64 'r' in
    let hold m =
      for _ = 1 to m do
        let c = Uctx.connect "held" in
        let s = Uctx.accept lfd in
        Uctx.write_all c req;
        ignore (Uctx.read_exact s ~len:64);
        Uctx.write_all s rep;
        ignore (Uctx.read_exact c ~len:64);
        Uctx.epoll_add ep c ~want_in:true ();
        Uctx.epoll_add ep s ~want_in:true ()
      done
    in
    let live () =
      Gc.full_major ();
      (Gc.stat ()).Gc.live_words
    in
    hold n;
    let l1 = live () in
    hold n;
    let l2 = live () in
    out := Some (float (l2 - l1) /. float n)
  in
  ignore (Kernel.spawn k ~name:"held" ~main);
  Kernel.run k;
  match !out with Some w -> w | None -> Alcotest.fail "hold did not finish"

let check_held ~words () =
  let w = held_words_per_conn 1_000 in
  if w > words then
    Alcotest.failf "held connection: %.1f live words, budget %.1f" w words

let check_budget name setup ~words ~events () =
  let r = measure setup in
  if r.words > words then
    Alcotest.failf "%s: %.2f words/call, budget %.2f" name r.words words;
  Alcotest.(check (float 0.)) (name ^ ": events/call") events r.events

(* Trace off costs nothing: with the ring disabled, and with it enabled
   but filtered to a tag no site emits, a loop through the kernel's
   trace sites allocates the same words per call, within the budget of
   a path that builds no trace arguments at all. *)
let check_trace_off name setup ~words () =
  let off = measure ~trace:`Off setup in
  let filtered = measure ~trace:`Filtered setup in
  Alcotest.(check (float 0.)) (name ^ ": filtered = off") off.words
    filtered.words;
  if filtered.words > words then
    Alcotest.failf "%s: %.2f words/call, budget %.2f" name filtered.words
      words

let () =
  Alcotest.run "hotpath"
    [
      ( "budget",
        [
          Alcotest.test_case "getpid" `Quick
            (check_budget "getpid" getpid ~words:60. ~events:3.);
          Alcotest.test_case "coalesced 1 us charge" `Quick
            (check_budget "charge" charge ~words:6.3 ~events:0.);
          Alcotest.test_case "64-byte socket round trip" `Quick
            (check_budget "socket rtt" socket_rtt ~words:518. ~events:14.);
          Alcotest.test_case "epoll_wait, entry ready" `Quick
            (check_budget "epoll_wait" epoll_ready ~words:172. ~events:6.);
        ] );
      ( "memory",
        [
          Alcotest.test_case "held idle connection" `Quick
            (check_held ~words:89.);
        ] );
      ( "trace-off",
        [
          Alcotest.test_case "socket round trip" `Quick
            (check_trace_off "socket rtt" socket_rtt ~words:518.);
        ] );
    ]
