(* The epoll readiness layer: edge-triggered delivery, coalescing,
   ONESHOT disarm/re-arm (including the lost-wakeup re-check), interest
   removal and stale-fd collection, EOF/RST arriving while an entry is
   already queued, and blocking-wait wakeup.  Driven through the syscall
   layer from plain LWPs so failures localize to the kernel. *)

module Time = Sunos_sim.Time
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Errno = Sunos_kernel.Errno
module Sysdefs = Sunos_kernel.Sysdefs
module Procfs = Sunos_kernel.Procfs

(* --- edge delivery on a pipe, single fiber ---------------------------- *)

let test_edge_and_coalesce () =
  let k = Kernel.boot () in
  let first = ref [] and second = ref [] and after_drain = ref [] in
  let coalesced = ref (-1) in
  ignore
    (Kernel.spawn k ~name:"p" ~main:(fun () ->
         let ep = Uctx.epoll_create () in
         let r, w = Uctx.pipe () in
         Uctx.epoll_add ep r ~want_in:true ();
         (* two writes before anyone waits: one queued entry, the second
            edge is absorbed (coalesced), not delivered twice *)
         ignore (Uctx.write w "a");
         ignore (Uctx.write w "b");
         first := Uctx.epoll_wait ep ~max_events:8;
         second := Uctx.epoll_wait ep ~max_events:8 ~timeout:(Time.ms 1);
         (match Procfs.epolls k with
         | [ ei ] -> coalesced := ei.Procfs.ei_coalesced
         | _ -> ());
         (* non-ONESHOT entry stays armed: drain, then a new write is a
            fresh edge *)
         ignore (Uctx.read r ~len:16);
         ignore (Uctx.write w "c");
         after_drain := Uctx.epoll_wait ep ~max_events:8;
         Uctx.close ep));
  Kernel.run k;
  (match !first with
  | [ _ ] -> ()
  | l -> Alcotest.failf "expected one ready fd, got %d" (List.length l));
  Alcotest.(check (list int)) "second wait empty (edge, not level)" [] !second;
  Alcotest.(check int) "second write coalesced" 1 !coalesced;
  Alcotest.(check int) "fresh edge after drain" 1 (List.length !after_drain)

(* --- ONESHOT: disarm on delivery, re-arm re-checks readiness ---------- *)

let test_oneshot_rearm () =
  let k = Kernel.boot () in
  let while_disarmed = ref [ -1 ] and after_rearm = ref [] in
  ignore
    (Kernel.spawn k ~name:"p" ~main:(fun () ->
         let ep = Uctx.epoll_create () in
         let r, w = Uctx.pipe () in
         Uctx.epoll_add ep r ~want_in:true ~oneshot:true ();
         ignore (Uctx.write w "x");
         (match Uctx.epoll_wait ep ~max_events:8 with
         | [ fd ] when fd = r -> ()
         | _ -> Alcotest.fail "oneshot first delivery");
         (* delivered -> disarmed: more data is NOT delivered again *)
         ignore (Uctx.write w "y");
         while_disarmed :=
           Uctx.epoll_wait ep ~max_events:8 ~timeout:(Time.ms 1);
         (* re-arm re-checks readiness: the bytes that arrived while the
            entry was disarmed must surface now, with no further edge —
            this is the lost-wakeup case *)
         Uctx.epoll_mod ep r ~want_in:true ~oneshot:true ();
         after_rearm := Uctx.epoll_wait ep ~max_events:8;
         Uctx.close ep));
  Kernel.run k;
  Alcotest.(check (list int)) "nothing while disarmed" [] !while_disarmed;
  Alcotest.(check int) "re-arm recovered buffered data" 1
    (List.length !after_rearm)

(* --- interest removal with readiness already pending ------------------ *)

let test_del_with_pending () =
  let k = Kernel.boot () in
  let got = ref [ -1 ] in
  ignore
    (Kernel.spawn k ~name:"p" ~main:(fun () ->
         let ep = Uctx.epoll_create () in
         let r, w = Uctx.pipe () in
         Uctx.epoll_add ep r ~want_in:true ();
         ignore (Uctx.write w "x");
         (* the entry is sitting in the ready queue; deleting the
            interest must also kill the queued readiness *)
         Uctx.epoll_del ep r;
         got := Uctx.epoll_wait ep ~max_events:8 ~timeout:(Time.ms 1);
         Uctx.close ep));
  Kernel.run k;
  Alcotest.(check (list int)) "deleted interest never delivered" [] !got

(* --- fd closed without epoll_del: stale entry collected --------------- *)

let test_stale_fd_collected () =
  let k = Kernel.boot () in
  let got = ref [ -1 ] and interest_after = ref (-1) in
  ignore
    (Kernel.spawn k ~name:"p" ~main:(fun () ->
         let ep = Uctx.epoll_create () in
         let r, w = Uctx.pipe () in
         Uctx.epoll_add ep r ~want_in:true ();
         ignore (Uctx.write w "x");
         Uctx.close r;
         got := Uctx.epoll_wait ep ~max_events:8 ~timeout:(Time.ms 1);
         (match Procfs.epolls k with
         | [ ei ] -> interest_after := ei.Procfs.ei_interest
         | _ -> ());
         Uctx.close ep));
  Kernel.run k;
  Alcotest.(check (list int)) "stale readiness dropped" [] !got;
  Alcotest.(check int) "stale entry collected from interest set" 0
    !interest_after

(* --- blocking wait is woken by a later edge --------------------------- *)

let test_blocking_wakeup () =
  let k = Kernel.boot () in
  let woke_at = ref Time.zero in
  ignore
    (Kernel.spawn k ~name:"p" ~main:(fun () ->
         let ep = Uctx.epoll_create () in
         let r, w = Uctx.pipe () in
         Uctx.epoll_add ep r ~want_in:true ();
         ignore
           (Uctx.lwp_create
              ~entry:(fun () ->
                Uctx.sleep (Time.ms 5);
                ignore (Uctx.write w "late"))
              ());
         (match Uctx.epoll_wait ep ~max_events:8 with
         | [ fd ] when fd = r -> woke_at := Uctx.gettime ()
         | _ -> Alcotest.fail "expected wake with ready fd");
         Uctx.close ep));
  Kernel.run k;
  Alcotest.(check bool) "woke after the 5ms write, not before" true
    Time.(!woke_at >= Time.add Time.zero (Time.ms 5))

(* --- timeout: empty wait returns [] after the budget ------------------ *)

let test_wait_timeout () =
  let k = Kernel.boot () in
  let got = ref [ -1 ] and elapsed = ref Time.zero in
  ignore
    (Kernel.spawn k ~name:"p" ~main:(fun () ->
         let ep = Uctx.epoll_create () in
         let r, _w = Uctx.pipe () in
         Uctx.epoll_add ep r ~want_in:true ();
         let t0 = Uctx.gettime () in
         got := Uctx.epoll_wait ep ~max_events:8 ~timeout:(Time.ms 2);
         elapsed := Time.diff (Uctx.gettime ()) t0;
         Uctx.close ep));
  Kernel.run k;
  Alcotest.(check (list int)) "timeout yields []" [] !got;
  Alcotest.(check bool) "waited the full budget" true
    Time.(Time.add Time.zero !elapsed >= Time.add Time.zero (Time.ms 2))

(* --- EOF while an entry is already queued ----------------------------- *)

let test_eof_while_ready () =
  let k = Kernel.boot () in
  let data = ref "" and tail = ref `Unset in
  ignore
    (Kernel.spawn k ~name:"server" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"svc" ~backlog:4 in
         let ep = Uctx.epoll_create () in
         Uctx.epoll_add ep lfd ~want_in:true ();
         (match Uctx.epoll_wait ep ~max_events:8 with
         | [ fd ] when fd = lfd -> ()
         | _ -> Alcotest.fail "listener readiness");
         let cfd =
           match Uctx.accept_nb lfd with
           | `Conn fd -> fd
           | _ -> Alcotest.fail "accept after readiness"
         in
         Uctx.epoll_add ep cfd ~want_in:true ();
         (* sleep past both the client's write and its clean close: the
            data edge and the EOF edge coalesce into one queued entry *)
         Uctx.sleep (Time.ms 20);
         (match Uctx.epoll_wait ep ~max_events:8 with
         | [ fd ] when fd = cfd -> ()
         | _ -> Alcotest.fail "conn readiness");
         (match Uctx.try_read cfd ~len:64 with
         | `Data s -> data := s
         | _ -> Alcotest.fail "expected buffered data before EOF");
         (match Uctx.try_read cfd ~len:64 with
         | `Eof -> tail := `Eof
         | `Data _ -> tail := `Data
         | `Again -> tail := `Again
         | `Reset -> tail := `Reset);
         Uctx.close cfd;
         Uctx.close ep;
         Uctx.close lfd));
  ignore
    (Kernel.spawn k ~name:"client" ~main:(fun () ->
         Uctx.sleep (Time.ms 1);
         let fd = Uctx.connect "svc" in
         Uctx.write_all fd "hello";
         (* clean close: nothing unread inbound on this side *)
         Uctx.close fd));
  Kernel.run k;
  Alcotest.(check string) "data survives the queued EOF" "hello" !data;
  Alcotest.(check bool) "then clean EOF" true (!tail = `Eof)

(* --- RST while an entry is already queued ----------------------------- *)

let test_rst_while_ready () =
  let k = Kernel.boot () in
  let outcome = ref `Unset in
  ignore
    (Kernel.spawn k ~name:"server" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"svc" ~backlog:4 in
         let ep = Uctx.epoll_create () in
         Uctx.epoll_add ep lfd ~want_in:true ();
         ignore (Uctx.epoll_wait ep ~max_events:8);
         let cfd =
           match Uctx.accept_nb lfd with
           | `Conn fd -> fd
           | _ -> Alcotest.fail "accept after readiness"
         in
         Uctx.epoll_add ep cfd ~want_in:true ();
         (* answer, then wait: the client never reads the reply and
            closes — an abortive close (RST) that fires the same edge
            path as data *)
         (match Uctx.try_read cfd ~len:64 with
         | `Data _ -> ()
         | _ -> ignore (Uctx.epoll_wait ep ~max_events:8));
         Uctx.write_all cfd "reply";
         (match Uctx.epoll_wait ep ~max_events:8 with
         | [ fd ] when fd = cfd -> (
             match Uctx.try_read cfd ~len:64 with
             | `Reset -> outcome := `Reset
             | `Eof -> outcome := `Eof
             | `Data _ -> outcome := `Data
             | `Again -> outcome := `Again)
         | _ -> Alcotest.fail "reset readiness");
         Uctx.close cfd;
         Uctx.close ep;
         Uctx.close lfd));
  ignore
    (Kernel.spawn k ~name:"client" ~main:(fun () ->
         Uctx.sleep (Time.ms 1);
         let fd = Uctx.connect "svc" in
         Uctx.write_all fd "ping";
         (* leave the reply unread long enough for it to be delivered,
            then close: closing with unread inbound data is abortive *)
         Uctx.sleep (Time.ms 10);
         Uctx.close fd));
  Kernel.run k;
  Alcotest.(check bool)
    (Printf.sprintf "reset surfaced through readiness (got %s)"
       (match !outcome with
       | `Reset -> "reset"
       | `Eof -> "eof"
       | `Data -> "data"
       | `Again -> "again"
       | `Unset -> "unset"))
    true (!outcome = `Reset)

(* --- error paths ------------------------------------------------------ *)

let test_errors () =
  let k = Kernel.boot () in
  let eexist = ref false
  and enoent = ref false
  and einval = ref false
  and ebadf = ref false in
  ignore
    (Kernel.spawn k ~name:"p" ~main:(fun () ->
         let ep = Uctx.epoll_create () in
         let r, _w = Uctx.pipe () in
         Uctx.epoll_add ep r ~want_in:true ();
         (try Uctx.epoll_add ep r ~want_in:true ()
          with Errno.Unix_error (Errno.EEXIST, _) -> eexist := true);
         (try Uctx.epoll_del ep 999
          with Errno.Unix_error (Errno.ENOENT, _) -> enoent := true);
         (* plain files have no edge sources: registering one is an error *)
         let dfd = Uctx.open_file "/tmp/f" in
         (try Uctx.epoll_add ep dfd ~want_in:true ()
          with Errno.Unix_error (Errno.EINVAL, _) -> einval := true);
         (* an epoll fd is not a stream: read/write are EBADF *)
         (try ignore (Uctx.read ep ~len:1)
          with Errno.Unix_error (Errno.EBADF, _) -> ebadf := true);
         Uctx.close ep));
  (match
     Sunos_kernel.Fs.create_file (Kernel.fs k) ~path:"/tmp/f" ()
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "fs setup");
  Kernel.run k;
  Alcotest.(check bool) "double add is EEXIST" true !eexist;
  Alcotest.(check bool) "del of unknown is ENOENT" true !enoent;
  Alcotest.(check bool) "plain file is EINVAL" true !einval;
  Alcotest.(check bool) "read on epoll fd is EBADF" true !ebadf

(* --- two epolls on one object ------------------------------------------ *)

(* Each object's watch lists hold the epoll entries themselves.  These
   cases put one socket (the accepted end of a connection) or one pipe
   (its read end) under two epoll instances at once and check that an
   edge is queued exactly once per live interest, that re-arming through
   ctl(MOD) neither duplicates nor loses an entry, and that removing one
   interest leaves the other firing. *)

type obj = { fd : int; feed : unit -> unit }

(* [fd] is the watched end; [feed] makes one input edge on it and waits
   until it has landed. *)
let with_obj kind f =
  match kind with
  | `Pipe ->
      let r, w = Uctx.pipe () in
      f
        {
          fd = r;
          feed =
            (fun () ->
              ignore (Uctx.write w "x");
              Uctx.sleep (Time.ms 5));
        }
  | `Socket ->
      let lfd = Uctx.listen ~name:"two" ~backlog:1 in
      let c = Uctx.connect "two" in
      let s = Uctx.accept lfd in
      f
        {
          fd = s;
          feed =
            (fun () ->
              Uctx.write_all c "x";
              Uctx.sleep (Time.ms 5));
        }

let drain o = ignore (Uctx.read o.fd ~len:64)
let poll_now ep = Uctx.epoll_wait ep ~max_events:8 ~timeout:0L

(* Observations made inside the simulated process, checked after the
   run (an exception there would only end the process). *)
type seen = {
  mutable counts : (string * (int * int) * (int * int)) list;
  mutable fds : (string * int list * int list) list;
}

(* expect (edges, coalesced) of the epoll at [epfd] *)
let expect_counts seen k msg epfd want =
  let got =
    match
      List.find_opt (fun ei -> ei.Procfs.ei_fd = epfd) (Procfs.epolls k)
    with
    | Some ei -> (ei.Procfs.ei_edges, ei.Procfs.ei_coalesced)
    | None -> (-1, -1)
  in
  seen.counts <- (msg, want, got) :: seen.counts

let expect_fds seen msg want got = seen.fds <- (msg, want, got) :: seen.fds

let run_two kind body =
  let k = Kernel.boot () in
  let seen = { counts = []; fds = [] } and finished = ref false in
  ignore
    (Kernel.spawn k ~name:"two" ~main:(fun () ->
         with_obj kind (fun o ->
             let ep1 = Uctx.epoll_create () in
             let ep2 = Uctx.epoll_create () in
             Uctx.epoll_add ep1 o.fd ~want_in:true ();
             Uctx.epoll_add ep2 o.fd ~want_in:true ();
             body (expect_counts seen k) (expect_fds seen) o ep1 ep2;
             finished := true)));
  Kernel.run k;
  Alcotest.(check bool) "scenario ran to the end" true !finished;
  List.iter
    (fun (msg, want, got) -> Alcotest.(check (pair int int)) msg want got)
    (List.rev seen.counts);
  List.iter
    (fun (msg, want, got) -> Alcotest.(check (list int)) msg want got)
    (List.rev seen.fds)

let test_two_one_edge_each kind () =
  run_two kind (fun counts fds o ep1 ep2 ->
      o.feed ();
      counts "ep1 queued once" ep1 (1, 0);
      counts "ep2 queued once" ep2 (1, 0);
      fds "ep1 delivers" [ o.fd ] (poll_now ep1);
      fds "ep2 delivers" [ o.fd ] (poll_now ep2);
      drain o;
      (* a second edge once both entries are idle again *)
      o.feed ();
      counts "ep1 second edge" ep1 (2, 0);
      counts "ep2 second edge" ep2 (2, 0);
      drain o)

let test_two_mod_cycle kind () =
  run_two kind (fun counts fds o ep1 ep2 ->
      (* in -> none -> in with no firing in between: the entry is still
         on the object's list, so re-arming must not list it twice (a
         duplicate would show as a coalesced edge) *)
      Uctx.epoll_mod ep1 o.fd ();
      Uctx.epoll_mod ep1 o.fd ~want_in:true ();
      o.feed ();
      counts "ep1 one edge, no duplicate" ep1 (1, 0);
      counts "ep2 unaffected" ep2 (1, 0);
      ignore (poll_now ep1);
      ignore (poll_now ep2);
      drain o;
      (* in -> none, then an edge: that firing prunes ep1's entry from
         the list; re-arming must put it back, not lose it *)
      Uctx.epoll_mod ep1 o.fd ();
      o.feed ();
      counts "ep1 silent while none" ep1 (1, 0);
      counts "ep2 still fires" ep2 (2, 0);
      ignore (poll_now ep2);
      drain o;
      Uctx.epoll_mod ep1 o.fd ~want_in:true ();
      o.feed ();
      counts "ep1 back after the prune" ep1 (2, 0);
      counts "ep2 once more" ep2 (3, 0);
      fds "ep1 delivers" [ o.fd ] (poll_now ep1);
      drain o)

let test_two_del_close kind () =
  run_two kind (fun counts fds o ep1 ep2 ->
      Uctx.epoll_del ep1 o.fd;
      o.feed ();
      counts "ep2 fires after DEL on ep1" ep2 (1, 0);
      fds "ep1 empty" [] (poll_now ep1);
      fds "ep2 delivers" [ o.fd ] (poll_now ep2);
      drain o;
      (* back on ep1, then close ep2 outright *)
      Uctx.epoll_add ep1 o.fd ~want_in:true ();
      Uctx.close ep2;
      o.feed ();
      counts "ep1 fires after ep2 closed" ep1 (1, 0);
      fds "ep1 delivers" [ o.fd ] (poll_now ep1);
      drain o)

(* Two LWPs block, one in each epoll; a single edge wakes both.  The
   object's list is walked head first and an interest is prepended when
   added, so the later-added epoll's waiter is woken first — and ctl(MOD)
   re-arms an entry in place, so the order survives a re-arm of the
   earlier one. *)
let test_two_wake_order kind () =
  let order = ref [] in
  run_two kind (fun _ _ o ep1 ep2 ->
      let round tag =
        let waiter ep name =
          ignore
            (Uctx.lwp_create
               ~entry:(fun () ->
                 ignore (Uctx.epoll_wait ep ~max_events:8);
                 order := (tag, name) :: !order)
               ())
        in
        waiter ep1 "ep1";
        waiter ep2 "ep2";
        Uctx.sleep (Time.ms 1);
        o.feed ();
        drain o
      in
      round "added";
      Uctx.epoll_mod ep1 o.fd ~want_in:true ();
      round "after MOD");
  Alcotest.(check (list (pair string string)))
    "later-added epoll woken first, MOD keeps the order"
    [
      ("added", "ep2"); ("added", "ep1"); ("after MOD", "ep2");
      ("after MOD", "ep1");
    ]
    (List.rev !order)

(* --- MOD where the fd names another object ----------------------------- *)

(* A forked child shares its parent's epoll but not its later fds: both
   open a pipe after the fork and get the same fd number for different
   objects.  The parent registers its pipe; a MOD from the child must
   move the interest to the child's pipe (the object the fd names for
   the caller), or edges on it would never be seen. *)
let test_mod_other_object () =
  let k = Kernel.boot () in
  let fds = ref (-1, -1) and got = ref [ -1 ] and after_old = ref [ -1 ] in
  ignore
    (Kernel.spawn k ~name:"parent" ~main:(fun () ->
         let ep = Uctx.epoll_create () in
         ignore
           (Uctx.fork ~child_main:(fun () ->
                Uctx.sleep (Time.ms 1);
                let r, w = Uctx.pipe () in
                fds := (fst !fds, r);
                Uctx.epoll_mod ep r ~want_in:true ();
                ignore (Uctx.write w "x");
                got := poll_now ep;
                ignore (Uctx.read r ~len:8);
                Uctx.sleep (Time.ms 2);
                (* the parent wrote to its pipe meanwhile: no edge *)
                after_old := poll_now ep));
         let r, w = Uctx.pipe () in
         fds := (r, snd !fds);
         Uctx.epoll_add ep r ~want_in:true ();
         Uctx.sleep (Time.ms 2);
         ignore (Uctx.write w "y");
         Uctx.sleep (Time.ms 5)));
  Kernel.run k;
  let pr, cr = !fds in
  Alcotest.(check int) "same fd number, different pipes" pr cr;
  Alcotest.(check (list int)) "edge on the child's pipe delivered" [ cr ] !got;
  Alcotest.(check (list int)) "parent's pipe detached" [] !after_old

let () =
  Alcotest.run "epoll"
    [
      ( "edges",
        [
          Alcotest.test_case "edge delivery + coalescing" `Quick
            test_edge_and_coalesce;
          Alcotest.test_case "oneshot disarm and re-arm re-check" `Quick
            test_oneshot_rearm;
          Alcotest.test_case "del with pending readiness" `Quick
            test_del_with_pending;
          Alcotest.test_case "stale fd collected" `Quick
            test_stale_fd_collected;
        ] );
      ( "waiting",
        [
          Alcotest.test_case "blocking wait wakes on edge" `Quick
            test_blocking_wakeup;
          Alcotest.test_case "timeout returns empty" `Quick test_wait_timeout;
        ] );
      ( "teardown",
        [
          Alcotest.test_case "EOF while ready" `Quick test_eof_while_ready;
          Alcotest.test_case "RST while ready" `Quick test_rst_while_ready;
          Alcotest.test_case "error paths" `Quick test_errors;
        ] );
      ( "two-epolls",
        List.concat_map
          (fun (name, kind) ->
            [
              Alcotest.test_case (name ^ ": one edge per interest") `Quick
                (test_two_one_edge_each kind);
              Alcotest.test_case (name ^ ": MOD in-none-in") `Quick
                (test_two_mod_cycle kind);
              Alcotest.test_case (name ^ ": DEL and close") `Quick
                (test_two_del_close kind);
              Alcotest.test_case (name ^ ": wakeup order") `Quick
                (test_two_wake_order kind);
            ])
          [ ("socket", `Socket); ("pipe", `Pipe) ]
        @ [
            Alcotest.test_case "MOD names another object" `Quick
              test_mod_other_object;
          ] );
    ]
