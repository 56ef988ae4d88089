(* Unit + property tests for the simulation engine. *)

module Time = Sunos_sim.Time
module Eventq = Sunos_sim.Eventq
module Rng = Sunos_sim.Rng
module Stats = Sunos_sim.Stats
module Tracebuf = Sunos_sim.Tracebuf
module Univ = Sunos_sim.Univ

let span = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal

(* ------------------------------ Time ------------------------------ *)

let test_time_units () =
  Alcotest.check span "us" 1_000L (Time.us 1);
  Alcotest.check span "ms" 1_000_000L (Time.ms 1);
  Alcotest.check span "s" 1_000_000_000L (Time.s 1);
  Alcotest.check span "us_f rounds" 1_500L (Time.us_f 1.5);
  Alcotest.check span "add" 3L (Time.add 1L 2L);
  Alcotest.check span "diff" 5L (Time.diff 8L 3L)

let test_time_compare () =
  Alcotest.(check bool) "lt" true Time.(1L < 2L);
  Alcotest.(check bool) "le eq" true Time.(2L <= 2L);
  Alcotest.(check bool) "gt" false Time.(1L > 2L);
  Alcotest.check span "max" 9L (Time.max 9L 3L);
  Alcotest.check span "min" 3L (Time.min 9L 3L)

let test_time_pp () =
  let s t = Format.asprintf "%a" Time.pp t in
  Alcotest.(check string) "ns" "500ns" (s 500L);
  Alcotest.(check string) "us" "2.00us" (s (Time.us 2));
  Alcotest.(check string) "ms" "3.50ms" (s (Time.us 3500));
  Alcotest.(check string) "s" "2.000s" (s (Time.s 2))

(* ------------------------------ Eventq ------------------------------ *)

let test_eventq_order () =
  let q = Eventq.create () in
  let log = ref [] in
  ignore (Eventq.at q 30L (fun () -> log := 3 :: !log));
  ignore (Eventq.at q 10L (fun () -> log := 1 :: !log));
  ignore (Eventq.at q 20L (fun () -> log := 2 :: !log));
  Eventq.run q;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.check span "clock at last event" 30L (Eventq.now q)

let test_eventq_fifo_ties () =
  let q = Eventq.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Eventq.at q 10L (fun () -> log := i :: !log))
  done;
  Eventq.run q;
  Alcotest.(check (list int)) "FIFO at same instant" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_eventq_cancel () =
  let q = Eventq.create () in
  let fired = ref false in
  let h = Eventq.at q 10L (fun () -> fired := true) in
  Alcotest.(check bool) "pending" true (Eventq.is_pending h);
  Eventq.cancel h;
  Alcotest.(check bool) "not pending" false (Eventq.is_pending h);
  Eventq.run q;
  Alcotest.(check bool) "cancelled did not fire" false !fired

let test_eventq_past_rejected () =
  let q = Eventq.create () in
  ignore (Eventq.at q 10L (fun () -> ()));
  Eventq.run q;
  Alcotest.check_raises "past" (Invalid_argument "Eventq.at: scheduling in the past")
    (fun () -> ignore (Eventq.at q 5L (fun () -> ())))

let test_eventq_until () =
  let q = Eventq.create () in
  let log = ref [] in
  ignore (Eventq.at q 10L (fun () -> log := 1 :: !log));
  ignore (Eventq.at q 100L (fun () -> log := 2 :: !log));
  Eventq.run ~until:50L q;
  Alcotest.(check (list int)) "only first" [ 1 ] (List.rev !log);
  Alcotest.check span "clock at horizon" 50L (Eventq.now q);
  Eventq.run q;
  Alcotest.(check (list int)) "rest runs" [ 1; 2 ] (List.rev !log)

let test_eventq_cascade () =
  (* events scheduling events *)
  let q = Eventq.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 10 then ignore (Eventq.after q 5L tick)
  in
  ignore (Eventq.after q 5L tick);
  Eventq.run q;
  Alcotest.(check int) "10 ticks" 10 !count;
  Alcotest.check span "clock" 50L (Eventq.now q)

let test_eventq_pending_exact () =
  let q = Eventq.create () in
  let hs = List.init 5 (fun i -> Eventq.at q (Int64.of_int (10 + i)) ignore) in
  Alcotest.(check int) "all pending" 5 (Eventq.pending_count q);
  (* cancel two *back* entries: the count must drop immediately, with
     nothing having fired from the front *)
  Eventq.cancel (List.nth hs 3);
  Eventq.cancel (List.nth hs 4);
  Alcotest.(check int) "cancels accounted" 3 (Eventq.pending_count q);
  Eventq.run q;
  Alcotest.(check int) "drained" 0 (Eventq.pending_count q)

let test_eventq_cancel_churn () =
  (* the net server's timer re-arm pattern at 10k scale: every handle is
     cancelled before it can fire.  Cancel takes the handle out of the
     heap at once, so [pending_count] — the heap's physical size — stays
     at the live count instead of 10k dead handles accumulating. *)
  let q = Eventq.create () in
  for _ = 1 to 10_000 do
    let h = Eventq.after q 1_000_000L ignore in
    Eventq.cancel h
  done;
  Alcotest.(check int) "live exact" 0 (Eventq.pending_count q);
  (* interleaved live + cancelled *)
  let fired = ref 0 in
  for i = 0 to 99 do
    ignore (Eventq.at q (Int64.of_int (2_000_000 + i)) (fun () -> incr fired))
  done;
  for _ = 1 to 10_000 do
    let h = Eventq.after q 3_000_000L ignore in
    Eventq.cancel h
  done;
  Alcotest.(check int) "live exact under churn" 100 (Eventq.pending_count q);
  Eventq.run q;
  Alcotest.(check int) "live handles all fired" 100 !fired

let test_eventq_cancel_fired_noop () =
  let q = Eventq.create () in
  let h = Eventq.at q 10L ignore in
  ignore (Eventq.at q 20L ignore);
  Alcotest.(check bool) "fired" true (Eventq.run_one q);
  Alcotest.(check bool) "fired handle not pending" false (Eventq.is_pending h);
  Eventq.cancel h;
  Alcotest.(check int) "other event untouched" 1 (Eventq.pending_count q);
  Eventq.run q;
  Alcotest.(check int) "both fired" 2 (Eventq.events_fired q)

let test_eventq_double_cancel () =
  let q = Eventq.create () in
  let hs = List.init 4 (fun i -> Eventq.at q (Int64.of_int (10 * (i + 1))) ignore) in
  let h = List.nth hs 1 in
  Eventq.cancel h;
  Eventq.cancel h;
  Alcotest.(check int) "counted once" 3 (Eventq.pending_count q);
  Eventq.run q;
  Alcotest.(check int) "three fired" 3 (Eventq.events_fired q)

(* An action cancels one of several same-instant events queued behind
   it: exactly that one is removed, the rest fire in FIFO order. *)
let test_eventq_cancel_from_action () =
  let q = Eventq.create () in
  let log = ref [] in
  let hs =
    Array.init 5 (fun i -> Eventq.at q 20L (fun () -> log := i :: !log))
  in
  ignore (Eventq.at q 10L (fun () -> Eventq.cancel hs.(2)));
  Eventq.run q;
  Alcotest.(check (list int)) "victim removed, FIFO kept" [ 0; 1; 3; 4 ]
    (List.rev !log);
  Alcotest.(check bool) "victim not pending" false (Eventq.is_pending hs.(2))

let test_eventq_next_time () =
  let q = Eventq.create () in
  Alcotest.(check (option span)) "empty" None (Eventq.next_time q);
  ignore (Eventq.at q 100L ignore);
  Alcotest.(check (option span)) "first pending" (Some 100L) (Eventq.next_time q);
  let seen = ref None in
  ignore (Eventq.at q 10L (fun () -> seen := Eventq.next_time q));
  Eventq.run ~until:50L q;
  Alcotest.(check (option span)) "clamped to the horizon" (Some 50L) !seen;
  Alcotest.(check (option span)) "horizon released" (Some 100L)
    (Eventq.next_time q)

let test_eventq_max_events () =
  let q = Eventq.create () in
  for i = 1 to 5 do
    ignore (Eventq.at q (Int64.of_int (10 * i)) ignore)
  done;
  Eventq.run ~max_events:2 q;
  Alcotest.(check int) "two fired" 2 (Eventq.events_fired q);
  Alcotest.(check int) "three left" 3 (Eventq.pending_count q);
  Alcotest.check span "clock at the second" 20L (Eventq.now q)

(* The drain hook runs only when the queue is truly empty, never on a
   horizon or budget stop; what it schedules is left queued. *)
let test_eventq_on_drain () =
  let q = Eventq.create () in
  let drains = ref 0 in
  Eventq.on_drain q (fun () ->
      incr drains;
      if !drains = 1 then ignore (Eventq.after q 5L ignore));
  List.iter (fun t -> ignore (Eventq.at q t ignore)) [ 10L; 100L; 200L ];
  Eventq.run ~until:50L q;
  Alcotest.(check int) "not on horizon" 0 !drains;
  Eventq.run ~max_events:1 q;
  Alcotest.(check int) "not on budget" 0 !drains;
  Eventq.run q;
  Alcotest.(check int) "on empty" 1 !drains;
  Alcotest.(check int) "hook's event queued, not run" 1 (Eventq.pending_count q)

let test_eventq_run_one () =
  let q = Eventq.create () in
  Alcotest.(check bool) "empty" false (Eventq.run_one q);
  ignore (Eventq.at q 7L ignore);
  ignore (Eventq.after q 3L ignore);
  Alcotest.(check bool) "first" true (Eventq.run_one q);
  Alcotest.check span "earliest first" 3L (Eventq.now q);
  Alcotest.(check bool) "second" true (Eventq.run_one q);
  Alcotest.check span "then the later" 7L (Eventq.now q);
  Alcotest.(check bool) "drained" false (Eventq.run_one q);
  Alcotest.(check int) "fired count" 2 (Eventq.events_fired q)

(* Growth well past any initial capacity, with same-instant runs
   interleaved among distinct times: FIFO holds within each instant. *)
let test_eventq_growth_fifo () =
  let q = Eventq.create () in
  let log = ref [] in
  for i = 0 to 2_999 do
    let t = Int64.of_int (1 + (i mod 3)) in
    ignore (Eventq.at q t (fun () -> log := (t, i) :: !log))
  done;
  Alcotest.(check int) "all pending" 3_000 (Eventq.pending_count q);
  Eventq.run q;
  let expected =
    List.concat_map
      (fun r -> List.init 1_000 (fun k -> (Int64.of_int (r + 1), (3 * k) + r)))
      [ 0; 1; 2 ]
  in
  Alcotest.(check (list (pair span int))) "time, then FIFO" expected
    (List.rev !log)

let prop_eventq_monotonic =
  QCheck.Test.make ~name:"eventq fires in nondecreasing time order" ~count:100
    QCheck.(list (int_bound 1000))
    (fun delays ->
      let q = Eventq.create () in
      let times = ref [] in
      List.iter
        (fun d ->
          ignore
            (Eventq.at q (Int64.of_int d) (fun () ->
                 times := Eventq.now q :: !times)))
        delays;
      Eventq.run q;
      let ts = List.rev !times in
      let rec mono = function
        | a :: (b :: _ as rest) -> Time.(a <= b) && mono rest
        | _ -> true
      in
      mono ts)

(* Model-based check of the heap against a sorted-list reference.  Each
   op runs on both; after every op the fired log, the clock, the pending
   count, the next-event time and every handle's pending flag must
   agree.  An event records what it observes while it fires — the clock,
   [next_time] (clamped to the horizon of the [run] draining it, if
   any) and [pending_count] — so the horizon clamp and a cancel issued
   from inside an action are checked at the instant they happen. *)

type eq_op =
  | Ev of int * int option
      (* delay from now; a handle the action cancels when it fires *)
  | Burst of int * int  (* count, spread of delays *)
  | Cancel of int  (* any handle, fired and cancelled ones included *)
  | Run_one
  | Run of int option * int option  (* horizon as delay from now, budget *)

let show_eq_op =
  let opt = function Some i -> string_of_int i | None -> "-" in
  function
  | Ev (d, t) -> Printf.sprintf "Ev(%d,%s)" d (opt t)
  | Burst (n, s) -> Printf.sprintf "Burst(%d,%d)" n s
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Run_one -> "Run_one"
  | Run (u, m) -> Printf.sprintf "Run(%s,%s)" (opt u) (opt m)

let gen_eq_op =
  let open QCheck.Gen in
  let maybe g = frequency [ (1, map Option.some g); (2, return None) ] in
  frequency
    [
      (8, map2 (fun d t -> Ev (d, t)) (int_bound 6) (maybe (int_bound 10_000)));
      (1, map2 (fun n s -> Burst (n, s)) (int_range 20 120) (int_bound 40));
      (3, map (fun i -> Cancel i) (int_bound 10_000));
      (3, return Run_one);
      (2, map2 (fun u m -> Run (u, m)) (maybe (int_bound 20)) (maybe (int_bound 8)));
    ]

type m_entry = { m_time : int64; m_id : int; m_target : int option }

type model = {
  mutable m_now : int64;
  mutable m_pending : m_entry list;  (* sorted by (time, id) *)
  mutable m_horizon : int64 option;
  mutable m_log : (int * int64 * int64 option * int) list;  (* newest first *)
}

(* Ids are handed out in scheduling order, so (time, id) is the FIFO key. *)
let rec m_insert e = function
  | x :: rest when (x.m_time, x.m_id) <= (e.m_time, e.m_id) ->
      x :: m_insert e rest
  | l -> e :: l

let m_cancel m id = m.m_pending <- List.filter (fun e -> e.m_id <> id) m.m_pending

let m_next_time m =
  match (m.m_pending, m.m_horizon) with
  | [], h -> h
  | e :: _, None -> Some e.m_time
  | e :: _, Some h -> Some (Time.min e.m_time h)

let m_fire m =
  match m.m_pending with
  | [] -> assert false
  | e :: rest ->
      m.m_pending <- rest;
      m.m_now <- e.m_time;
      Option.iter (m_cancel m) e.m_target;
      m.m_log <-
        (e.m_id, m.m_now, m_next_time m, List.length m.m_pending) :: m.m_log

let m_run m ~until ~max_events =
  let saved = m.m_horizon in
  if until <> None then m.m_horizon <- until;
  let budget = Option.value max_events ~default:max_int in
  let rec loop fired =
    match m.m_pending with
    | e :: _ when fired < budget -> (
        match until with
        | Some h when Time.(e.m_time > h) -> m.m_now <- h
        | _ ->
            m_fire m;
            loop (fired + 1))
    | _ -> ()
  in
  loop 0;
  (match until with
  | Some h when m.m_pending = [] && Time.(m.m_now < h) -> m.m_now <- h
  | _ -> ());
  m.m_horizon <- saved

let eventq_agrees_with_model ops =
  let q = Eventq.create () in
  let m = { m_now = 0L; m_pending = []; m_horizon = None; m_log = [] } in
  let handles = Hashtbl.create 64 in
  let log = ref [] in
  let made = ref 0 in
  let schedule delay target =
    let id = !made in
    incr made;
    let target = if id = 0 then None else Option.map (fun t -> t mod id) target in
    let time = Int64.add m.m_now (Int64.of_int delay) in
    let action () =
      Option.iter (fun t -> Eventq.cancel (Hashtbl.find handles t)) target;
      log := (id, Eventq.now q, Eventq.next_time q, Eventq.pending_count q) :: !log
    in
    Hashtbl.replace handles id (Eventq.at q time action);
    m.m_pending <- m_insert { m_time = time; m_id = id; m_target = target } m.m_pending
  in
  let step = function
    | Ev (d, t) -> schedule d t
    | Burst (n, spread) ->
        for i = 1 to n do
          schedule (i * 7919 mod (spread + 1)) None
        done
    | Cancel i ->
        if !made > 0 then begin
          let id = i mod !made in
          Eventq.cancel (Hashtbl.find handles id);
          m_cancel m id
        end
    | Run_one ->
        let expected = m.m_pending <> [] in
        if expected then m_fire m;
        if Eventq.run_one q <> expected then failwith "run_one disagrees"
    | Run (u, max_events) ->
        let until = Option.map (fun u -> Int64.add m.m_now (Int64.of_int u)) u in
        Eventq.run ?until ?max_events q;
        m_run m ~until ~max_events
  in
  let agrees () =
    !log = m.m_log
    && Eventq.now q = m.m_now
    && Eventq.pending_count q = List.length m.m_pending
    && Eventq.next_time q = m_next_time m
    && Hashtbl.fold
         (fun id h ok ->
           ok
           && Eventq.is_pending h = List.exists (fun e -> e.m_id = id) m.m_pending)
         handles true
  in
  List.for_all
    (fun op ->
      step op;
      agrees ())
    ops

let prop_eventq_model =
  QCheck.Test.make ~name:"eventq agrees with a sorted-list model" ~count:300
    (QCheck.make
       ~print:(QCheck.Print.list show_eq_op)
       QCheck.Gen.(list_size (int_range 1 150) gen_eq_op))
    eventq_agrees_with_model

(* The same check on a fixed script that grows the heap well past its
   initial capacity, cancels across it, and drains it in stages. *)
let test_eventq_model_growth () =
  let ops =
    [ Burst (300, 7); Ev (3, Some 5); Cancel 40; Cancel 40; Run (Some 2, None);
      Burst (200, 0); Run_one; Cancel 250; Run (None, Some 100);
      Ev (0, Some 299); Run (Some 3, None); Run (None, None) ]
  in
  Alcotest.(check bool) "model agrees" true (eventq_agrees_with_model ops)

(* ------------------------------ Rng ------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:42L in
  let b = Rng.split a in
  let b_first = Rng.int64 b in
  (* advancing [a] must not change what [b] would have produced *)
  let a' = Rng.create ~seed:42L in
  let b' = Rng.split a' in
  for _ = 1 to 10 do
    ignore (Rng.int64 a')
  done;
  Alcotest.(check bool) "split stream stable" true (Int64.equal b_first (Rng.int64 b'))

let prop_rng_int_bound =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let test_rng_exponential_positive () =
  let rng = Rng.create ~seed:7L in
  for _ = 1 to 100 do
    let v = Rng.exponential rng ~mean:10. in
    Alcotest.(check bool) "positive" true (v >= 0.)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:3L in
  let a = Array.init 20 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 (fun i -> i)) sorted

(* ------------------------------ Stats ------------------------------ *)

let test_counter () =
  let c = Stats.Counter.create "c" in
  Stats.Counter.incr c;
  Stats.Counter.add c 5;
  Alcotest.(check int) "value" 6 (Stats.Counter.value c);
  Stats.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Stats.Counter.value c)

let test_hist_exact () =
  let h = Stats.Hist.create "h" in
  List.iter (fun x -> Stats.Hist.add h (Int64.of_int x)) [ 10; 20; 30; 40; 50 ];
  Alcotest.(check int) "count" 5 (Stats.Hist.count h);
  Alcotest.(check (float 0.001)) "mean" 30. (Stats.Hist.mean h);
  Alcotest.check span "min" 10L (Stats.Hist.min h);
  Alcotest.check span "max" 50L (Stats.Hist.max h);
  Alcotest.check span "p50" 30L (Stats.Hist.percentile h 0.5);
  Alcotest.check span "p0" 10L (Stats.Hist.percentile h 0.0);
  Alcotest.check span "p100" 50L (Stats.Hist.percentile h 1.0)

let test_hist_decimation () =
  let h = Stats.Hist.create ~capacity:128 "h" in
  for i = 1 to 10_000 do
    Stats.Hist.add h (Int64.of_int i)
  done;
  Alcotest.(check int) "count tracks all" 10_000 (Stats.Hist.count h);
  Alcotest.check span "max exact" 10_000L (Stats.Hist.max h);
  Alcotest.check span "min exact" 1L (Stats.Hist.min h);
  let p50 = Int64.to_float (Stats.Hist.percentile h 0.5) in
  Alcotest.(check bool) "p50 approximately mid" true (p50 > 3000. && p50 < 7000.)

let test_hist_empty () =
  let h = Stats.Hist.create "h" in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.Hist.mean h));
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.Hist.percentile: empty") (fun () ->
      ignore (Stats.Hist.percentile h 0.5))

(* ------------------------------ Tracebuf ------------------------------ *)

let test_tracebuf_basic () =
  let t = Tracebuf.create ~capacity:4 () in
  for i = 1 to 6 do
    Tracebuf.emit t ~time:(Int64.of_int i) ~tag:"x" (string_of_int i)
  done;
  let recs = Tracebuf.records t in
  Alcotest.(check int) "capacity bounds" 4 (List.length recs);
  Alcotest.(check int) "dropped" 2 (Tracebuf.dropped t);
  Alcotest.(check string) "oldest kept" "3" (List.hd recs).Tracebuf.msg

let test_tracebuf_find_disable () =
  let t = Tracebuf.create () in
  Tracebuf.emit t ~time:1L ~tag:"a" "one";
  Tracebuf.emit t ~time:2L ~tag:"b" "two";
  Tracebuf.set_enabled t false;
  Tracebuf.emit t ~time:3L ~tag:"a" "three";
  Alcotest.(check int) "find a" 1 (List.length (Tracebuf.find t ~tag:"a"));
  Tracebuf.clear t;
  Alcotest.(check int) "cleared" 0 (List.length (Tracebuf.records t))

(* ------------------------------ Univ ------------------------------ *)

let test_univ_roundtrip () =
  let ki : int Univ.key = Univ.key () in
  let ks : string Univ.key = Univ.key () in
  let u = Univ.pack ki 42 in
  Alcotest.(check (option int)) "same key" (Some 42) (Univ.unpack ki u);
  Alcotest.(check (option string)) "other key" None (Univ.unpack ks u);
  let ki2 : int Univ.key = Univ.key () in
  Alcotest.(check (option int)) "distinct keys of same type" None
    (Univ.unpack ki2 u)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sunos_sim"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "compare" `Quick test_time_compare;
          Alcotest.test_case "pp" `Quick test_time_pp;
        ] );
      ( "eventq",
        [
          Alcotest.test_case "order" `Quick test_eventq_order;
          Alcotest.test_case "fifo ties" `Quick test_eventq_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_eventq_cancel;
          Alcotest.test_case "past rejected" `Quick test_eventq_past_rejected;
          Alcotest.test_case "until" `Quick test_eventq_until;
          Alcotest.test_case "cascade" `Quick test_eventq_cascade;
          Alcotest.test_case "pending exact" `Quick test_eventq_pending_exact;
          Alcotest.test_case "cancel churn" `Quick test_eventq_cancel_churn;
          qt prop_eventq_monotonic;
          Alcotest.test_case "model growth" `Quick test_eventq_model_growth;
          qt prop_eventq_model;
          Alcotest.test_case "cancel fired no-op" `Quick
            test_eventq_cancel_fired_noop;
          Alcotest.test_case "double cancel" `Quick test_eventq_double_cancel;
          Alcotest.test_case "cancel from action" `Quick
            test_eventq_cancel_from_action;
          Alcotest.test_case "next_time horizon" `Quick test_eventq_next_time;
          Alcotest.test_case "max_events" `Quick test_eventq_max_events;
          Alcotest.test_case "on_drain" `Quick test_eventq_on_drain;
          Alcotest.test_case "run_one" `Quick test_eventq_run_one;
          Alcotest.test_case "growth keeps fifo" `Quick test_eventq_growth_fifo;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential" `Quick test_rng_exponential_positive;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
          qt prop_rng_int_bound;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "hist exact" `Quick test_hist_exact;
          Alcotest.test_case "hist decimation" `Quick test_hist_decimation;
          Alcotest.test_case "hist empty" `Quick test_hist_empty;
        ] );
      ( "tracebuf",
        [
          Alcotest.test_case "ring" `Quick test_tracebuf_basic;
          Alcotest.test_case "find/disable" `Quick test_tracebuf_find_disable;
        ] );
      ("univ", [ Alcotest.test_case "roundtrip" `Quick test_univ_roundtrip ]);
    ]
