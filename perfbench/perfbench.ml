(* The measuring half of the benchmark.  run.py spawns it once per task
   and reads one JSON object per stdout line; all aggregation (medians,
   per-op ratios, cross-run checks) happens there.

     perfbench.exe setup  <workload> <seed>
     perfbench.exe run    <workload> <seed> <seconds>
     perfbench.exe layers <workload> <seed> <seconds>
     perfbench.exe ladder

   A run covers the workload's sub-seeds [seed * subseeds + j], one run
   call each, then repeats them in turn until [seconds] have passed and
   at least one has run twice.  [setup] does what [run] does before its
   first run call and exits.  [run] ends with the paper rows; [layers]
   adds one traced run and one run with the kernel trace ring on, both
   of the first sub-seed.  Every mode interleaves samples of the host
   calibration loop, calib.exe. *)

module Microbench = Sunos_workloads.Microbench
module Histogram = Sunos_sim.Histogram

(* ------------------------------------------------------------------ *)
(* JSON lines                                                           *)
(* ------------------------------------------------------------------ *)

let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let obj fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
  ^ "}"

let int i = string_of_int i
let i64 i = Int64.to_string i
let str s = Printf.sprintf "%S" s
let bool b = if b then "true" else "false"
let list f l = "[" ^ String.concat ", " (List.map f l) ^ "]"

let emit fields =
  print_endline (obj fields);
  flush stdout

(* ------------------------------------------------------------------ *)
(* Host calibration: a fixed pure-OCaml loop                            *)
(* ------------------------------------------------------------------ *)

(* A sample is one run of calib.exe, built beside this program from
   perfbench/calib with fixed flags and none of the simulator's
   libraries.  Its own process keeps the loop's allocation out of this
   process's heap, peak heap and GC counters. *)
let calib_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "calib/calib.exe"

let calib_once () =
  let ic = Unix.open_process_args_in calib_exe [| calib_exe |] in
  let ns = float_of_string (input_line ic) in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ns
  | _ -> failwith "calibration process failed"

(* Samples are taken between measured calls, at most every
   [calib_every_s] seconds, and once more at the end. *)
let calib_every_s = 4.
let last_calib = ref neg_infinity

let calibrate ?(force = false) () =
  if force || Unix.gettimeofday () -. !last_calib >= calib_every_s then begin
    emit [ ("kind", str "calib"); ("ns", num (calib_once ())) ];
    last_calib := Unix.gettimeofday ()
  end

(* ------------------------------------------------------------------ *)
(* One measured run call                                                *)
(* ------------------------------------------------------------------ *)

let outcome_fields (o : Wl.outcome) =
  let c = o.Wl.counters and e = o.Wl.epoll in
  [
    ("issued", int o.Wl.issued);
    ("ok", int o.Wl.ok);
    ("makespan_ns", i64 o.Wl.makespan_ns);
    ("p50_ns", i64 o.Wl.p50_ns);
    ("p99_ns", i64 o.Wl.p99_ns);
    ("max_ns", i64 o.Wl.max_ns);
    ("samples", int o.Wl.samples);
    ( "counters",
      obj
        [
          ("syscalls", int c.Wl.syscalls);
          ("dispatches", int c.Wl.dispatches);
          ("preemptions", int c.Wl.preemptions);
          ("lwps_created", int c.Wl.lwps_created);
          ("sigwaiting", int c.Wl.sigwaiting);
          ("events", int c.Wl.events);
          ("cpu_busy_frac", num c.Wl.cpu_busy_frac);
          ("minflt", int c.Wl.minflt);
          ("majflt", int c.Wl.majflt);
          ("utime_ns", i64 c.Wl.utime_ns);
          ("stime_ns", i64 c.Wl.stime_ns);
        ] );
    ( "epoll",
      obj
        [
          ("wakeups", int e.Wl.wakeups);
          ("delivered", int e.Wl.delivered);
          ("edges", int e.Wl.edges);
          ("coalesced", int e.Wl.coalesced);
        ] );
    ("facts", obj (List.map (fun (k, v) -> (k, int v)) o.Wl.facts));
    ("checks", obj (List.map (fun (k, v) -> (k, bool v)) o.Wl.checks));
  ]

(* Host time, allocation and GC work of one run call.  The heap is
   compacted first so a run does not pay for its predecessor's garbage. *)
let measured ~kind ~rep ~subseed (run : Wl.run) ?model ~trace () =
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let wall0 = Unix.gettimeofday () in
  let t0 = Host.cpu_s () in
  let o = run ?model ~trace () in
  let t1 = Host.cpu_s () in
  let wall1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  emit
    ([
       ("kind", str kind);
       ("rep", int rep);
       ("subseed", int subseed);
       ("host_s", num (t1 -. t0));
       ("wall_s", num (wall1 -. wall0));
       ("minor_words", num (w1 -. w0));
       ("promoted_words", num (g1.Gc.promoted_words -. g0.Gc.promoted_words));
       ("minor_collections", int (g1.Gc.minor_collections - g0.Gc.minor_collections));
       ("major_collections", int (g1.Gc.major_collections - g0.Gc.major_collections));
       ("top_heap_words", int g1.Gc.top_heap_words);
     ]
    @ outcome_fields o);
  o

let subseed (w : Wl.t) seed j = (seed * w.Wl.subseeds) + j

(* Every sub-seed once, then repeats — starting from the second sub-seed,
   so a repeat is compared with a run that did not also pay the
   process's one-time initialisation — until [seconds] have passed.  The
   first pass's latency samples are pooled into one histogram, whose
   percentiles, mean and maximum end the run. *)
let repeat (w : Wl.t) ~seconds seed =
  let n = w.Wl.subseeds in
  let pool = Histogram.create "pooled latency" in
  let start = Unix.gettimeofday () in
  let rec go rep =
    let j = if rep < n then rep else (rep - n + 1) mod n in
    let s = subseed w seed j in
    let o = measured ~kind:"rep" ~rep ~subseed:s (w.Wl.setup s) ~trace:false () in
    if rep < n then o.Wl.pool_latency pool;
    calibrate ();
    if rep < n || Unix.gettimeofday () -. start < seconds then go (rep + 1)
  in
  go 0;
  let empty = Histogram.count pool = 0 in
  let pct p = if empty then 0L else Histogram.percentile pool p in
  emit
    [
      ("kind", str "pooled");
      ("runs", int n);
      ("samples", int (Histogram.count pool));
      ("p50_ns", i64 (pct 0.50));
      ("p99_ns", i64 (pct 0.99));
      ("mean_ns", num (if empty then 0. else Histogram.mean pool));
      ("max_ns", i64 (if empty then 0L else Histogram.max pool));
    ]

(* ------------------------------------------------------------------ *)
(* Modes                                                                *)
(* ------------------------------------------------------------------ *)

let workload name =
  match Wl.find name with
  | Some w -> w
  | None ->
      Printf.eprintf "perfbench: unknown workload %S\n" name;
      exit 2

let paper_rows () =
  let c = Microbench.creation () and s = Microbench.sync () in
  emit
    [
      ("kind", str "paper");
      ( "rows",
        list
          (fun (name, sim, paper) ->
            obj [ ("row", str name); ("sim_us", num sim); ("paper_us", num paper) ])
          [
            ("unbound create", c.Microbench.unbound_us, 56.);
            ("bound create", c.Microbench.bound_us, 2327.);
            ("setjmp/longjmp", s.Microbench.setjmp_us, 59.);
            ("unbound sync", s.Microbench.unbound_us, 158.);
            ("bound sync", s.Microbench.bound_us, 348.);
            ("cross-process sync", s.Microbench.cross_process_us, 301.);
          ] );
    ]

let setup_mode name seed =
  let w = workload name in
  let (_ : Wl.run) = Sys.opaque_identity (w.Wl.setup (subseed w seed 0)) in
  emit [ ("kind", str "ready") ]

let run_mode name seed seconds =
  let w = workload name in
  repeat w ~seconds seed;
  calibrate ~force:true ();
  paper_rows ()

module Traced_mt = Traced.Wrap (Sunos_baselines.Mt)

let layers_mode name seed seconds =
  let w = workload name in
  repeat w ~seconds seed;
  let s = subseed w seed 0 in
  (* the traced run: spans around set-up, run and checks, the thread
     model wrapped *)
  let run = Traced.span "setup" (fun () -> w.Wl.setup s) in
  let o =
    Traced.span "run" (fun () ->
        measured ~kind:"traced" ~rep:0 ~subseed:s run
          ~model:(module Traced_mt) ~trace:false ())
  in
  Traced.span "checks" (fun () ->
      ignore (Sys.opaque_identity (List.for_all snd o.Wl.checks)));
  emit
    [
      ("kind", str "spans");
      ( "spans",
        list
          (fun s ->
            obj
              [
                ("name", str s.Traced.name);
                ("t0", num s.Traced.t0);
                ("dur_s", num (s.Traced.t1 -. s.Traced.t0));
              ])
          (List.rev !Traced.spans) );
      ( "calls",
        list
          (fun c ->
            obj
              [
                ("call", str c.Traced.call);
                ("count", int c.Traced.count);
                ("busy_s", num c.Traced.busy_s);
                ("waits", int c.Traced.waits);
                ("wait_s", num c.Traced.wait_s);
              ])
          Traced.calls );
    ];
  (* the same run with the kernel trace ring on *)
  ignore (measured ~kind:"tracebuf" ~rep:0 ~subseed:s (w.Wl.setup s) ~trace:true ());
  calibrate ~force:true ()

let ladder_mode () =
  calibrate ~force:true ();
  List.iter
    (fun r ->
      let samples = List.init 3 (fun _ -> r.Ladder.measure ()) in
      emit
        [
          ("kind", str "rung");
          ("name", str r.Ladder.name);
          ("what", str r.Ladder.what);
          ("ops", int r.Ladder.ops);
          ("ns", list (fun s -> num s.Ladder.ns) samples);
          ("words", list (fun s -> num s.Ladder.words) samples);
          ("events", list (fun s -> int s.Ladder.events) samples);
        ])
    Ladder.rungs;
  calibrate ~force:true ()

let usage () =
  prerr_endline
    "usage: perfbench.exe (setup W SEED | run W SEED SECONDS | layers W SEED \
     SECONDS | ladder)";
  exit 2

let () =
  if Sys.getenv_opt "SUNOS_DOMAINS" <> None then begin
    prerr_endline "perfbench: refusing to run with SUNOS_DOMAINS set";
    exit 2
  end;
  match Array.to_list Sys.argv |> List.tl with
  | [ "setup"; w; seed ] -> setup_mode w (int_of_string seed)
  | [ "run"; w; seed; secs ] -> run_mode w (int_of_string seed) (float_of_string secs)
  | [ "layers"; w; seed; secs ] ->
      layers_mode w (int_of_string seed) (float_of_string secs)
  | [ "ladder" ] -> ladder_mode ()
  | _ -> usage ()
