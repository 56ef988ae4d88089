(* Domain isolation: a simulated machine is single-threaded and
   domain-confined, so several machines may run at once on separate
   OCaml domains (bench/main.exe -j does exactly this) and each must
   produce the outcome it produces alone.

   Every probe runs once on the test's own domain, then as d concurrent
   copies on d freshly spawned domains for d in {2, 4}.  Every copy's
   trace tag digest, dispatch/preemption counters and per-LWP /proc
   utime/stime table must be bit-identical to the lone run — any
   simulator state shared across domains (the run-ahead ledger, robust
   lock tables, sanitizer pools, thread-current pointers) would show up
   as a divergence.  A chaos (network-heavy) run is held to the same
   standard at two domains: fault injection draws from a per-machine
   deterministic stream. *)

module Kernel = Sunos_kernel.Kernel
module Procfs = Sunos_kernel.Procfs
module Faultgen = Sunos_sim.Faultgen
module S = Sunos_workloads.Net_server
module Db = Sunos_workloads.Database
module KV = Sunos_workloads.Kv_store

type probe = {
  tag_digest : string;
  tag_count : int;
  dispatches : int;
  preemptions : int;
  lwp_times : string;  (* rendered per-LWP /proc utime/stime table *)
}

let probe_of_kernel k =
  let tags =
    List.map (fun r -> r.Sunos_sim.Tracebuf.tag) (Kernel.trace_records k)
  in
  let lwp_times =
    Procfs.snapshot k
    |> List.concat_map (fun pi ->
           List.map
             (fun li ->
               Printf.sprintf "pid%d/lwp%d u=%Ld s=%Ld" pi.Procfs.pi_pid
                 li.Procfs.li_lwpid li.Procfs.li_utime li.Procfs.li_stime)
             pi.Procfs.pi_lwps)
    |> String.concat "\n"
  in
  {
    tag_digest = Digest.to_hex (Digest.string (String.concat "," tags));
    tag_count = List.length tags;
    dispatches = Kernel.dispatch_count k;
    preemptions = Kernel.preemption_count k;
    lwp_times;
  }

let check name (a : probe) (b : probe) =
  Alcotest.(check string) (name ^ " trace tag digest") a.tag_digest b.tag_digest;
  Alcotest.(check int) (name ^ " trace tag count") a.tag_count b.tag_count;
  Alcotest.(check int) (name ^ " dispatches") a.dispatches b.dispatches;
  Alcotest.(check int) (name ^ " preemptions") a.preemptions b.preemptions;
  Alcotest.(check string) (name ^ " per-LWP utime/stime") a.lwp_times b.lwp_times

(* [d] copies of [run] at once, one per spawned domain. *)
let concurrently d run =
  List.init d (fun _ -> Domain.spawn run) |> List.map Domain.join

let across_domains ?(counts = [ 2; 4 ]) name run =
  let alone = run () in
  List.iter
    (fun d ->
      List.iteri
        (fun i p -> check (Printf.sprintf "%s domains=%d copy %d" name d i) alone p)
        (concurrently d run))
    counts

(* --- workload probes ---------------------------------------------------- *)

let net_probe () =
  let p =
    {
      S.default_params with
      connections = 12;
      requests_per_conn = 2;
      think_time_us = 20_000;
      connect_stagger_us = 500;
      disk_every = 8;
      workers = 4;
      concurrency = 4;
      client_concurrency = 12;
      listen_backlog = 32;
    }
  in
  let out = ref None in
  ignore
    (S.run
       (module Sunos_baselines.Mt)
       ~cpus:2 ~trace:true
       ~debrief:(fun k -> out := Some (probe_of_kernel k))
       p);
  Option.get !out

let db_probe () =
  let p =
    {
      Db.default_params with
      processes = 2;
      threads_per_process = 4;
      records = 16;
      transactions_per_thread = 10;
    }
  in
  let out = ref None in
  ignore
    (Db.run ~cpus:2 ~trace:true
       ~debrief:(fun k -> out := Some (probe_of_kernel k))
       p);
  Option.get !out

let kv_probe () =
  let p =
    {
      KV.default_params with
      server_procs = 2;
      shards = 4;
      clients = 6;
      requests_per_client = 4;
      workers_per_server = 3;
      think_time_us = 500;
    }
  in
  let out = ref None in
  ignore
    (KV.run ~cpus:2 ~trace:true
       ~debrief:(fun k -> out := Some (probe_of_kernel k))
       p);
  Option.get !out

let test_net () = across_domains "net-server" net_probe
let test_db () = across_domains "database" db_probe
let test_kv () = across_domains "kv-store" kv_probe

let chaos_probe () =
  let p =
    {
      S.default_params with
      connections = 10;
      requests_per_conn = 3;
      think_time_us = 1_000;
      connect_stagger_us = 500;
      workers = 4;
      concurrency = 4;
      client_concurrency = 10;
      listen_backlog = 8;
      hardened = true;
      connect_retry_limit = 12;
      retry_base_us = 300;
      request_deadline_us = 250_000;
      shed_queue_limit = 6;
    }
  in
  let out = ref None in
  ignore
    (S.run
       (module Sunos_baselines.Mt)
       ~cpus:2 ~chaos:Faultgen.network_heavy ~trace:true
       ~debrief:(fun k -> out := Some (probe_of_kernel k))
       p);
  Option.get !out

let test_chaos () =
  across_domains ~counts:[ 2 ] "net-server chaos network-heavy" chaos_probe

let () =
  Alcotest.run "domains"
    [
      ( "domains",
        [
          Alcotest.test_case "net-server bit-identical x domains" `Quick
            test_net;
          Alcotest.test_case "database bit-identical x domains" `Quick test_db;
          Alcotest.test_case "kv-store bit-identical x domains" `Quick test_kv;
          Alcotest.test_case "chaos network-heavy domains=2" `Quick test_chaos;
        ] );
    ]
