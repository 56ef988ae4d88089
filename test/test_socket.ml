(* The kernel socket layer: connection admission, stream semantics
   (EOF, reset, backpressure), poll integration, trace and /proc
   visibility.  All tests drive sockets through the syscall layer from
   plain LWPs — no threads library — so failures localize to the
   kernel. *)

module Time = Sunos_sim.Time
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Errno = Sunos_kernel.Errno
module Sysdefs = Sunos_kernel.Sysdefs
module Procfs = Sunos_kernel.Procfs

let pf fd = { Sysdefs.pfd = fd; want_in = true; want_out = false }

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

(* One listener with backlog 2 that never accepts; five clients connect
   simultaneously.  Admission happens at SYN arrival, so exactly the
   backlog is admitted and the rest are refused — and the split is the
   same on every run. *)
let overflow_run () =
  let k = Kernel.boot () in
  let admitted = ref 0 and refused = ref 0 in
  ignore
    (Kernel.spawn k ~name:"server" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"svc" ~backlog:2 in
         Uctx.sleep (Time.ms 50);
         Uctx.close lfd));
  for i = 1 to 5 do
    ignore
      (Kernel.spawn k ~name:(Printf.sprintf "c%d" i) ~main:(fun () ->
           Uctx.sleep (Time.ms 1);
           match Uctx.connect "svc" with
           | fd ->
               incr admitted;
               Uctx.sleep (Time.ms 10);
               Uctx.close fd
           | exception Errno.Unix_error (Errno.ECONNREFUSED, _) ->
               incr refused))
  done;
  Kernel.run k;
  (!admitted, !refused, Kernel.now k)

let test_backlog_overflow () =
  let a1, r1, t1 = overflow_run () in
  Alcotest.(check int) "backlog admitted" 2 a1;
  Alcotest.(check int) "overflow refused" 3 r1;
  let a2, r2, t2 = overflow_run () in
  Alcotest.(check int) "same admitted" a1 a2;
  Alcotest.(check int) "same refused" r1 r2;
  Alcotest.(check bool) "same makespan" true (Time.compare t1 t2 = 0)

let test_addr_in_use () =
  let k = Kernel.boot () in
  let second = ref `Unset in
  ignore
    (Kernel.spawn k ~name:"dup" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"svc" ~backlog:4 in
         (match Uctx.listen ~name:"svc" ~backlog:4 with
         | _ -> second := `Listened
         | exception Errno.Unix_error (Errno.EADDRINUSE, _) ->
             second := `Addr_in_use);
         Uctx.close lfd;
         (* the name is free again after close *)
         Uctx.close (Uctx.listen ~name:"svc" ~backlog:4)));
  Kernel.run k;
  Alcotest.(check bool) "second listen refused" true (!second = `Addr_in_use)

(* ------------------------------------------------------------------ *)
(* Stream semantics                                                    *)
(* ------------------------------------------------------------------ *)

let test_eof_after_peer_close () =
  let k = Kernel.boot () in
  let got = ref "" and eof = ref "unset" in
  ignore
    (Kernel.spawn k ~name:"server" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"svc" ~backlog:1 in
         let fd = Uctx.accept lfd in
         got := Uctx.read_exact fd ~len:5;
         (* peer has closed: ordered EOF after all data, then again *)
         eof :=
           if Uctx.read fd ~len:10 = "" && Uctx.read fd ~len:10 = "" then
             "eof"
           else "data";
         Uctx.close fd;
         Uctx.close lfd));
  ignore
    (Kernel.spawn k ~name:"client" ~main:(fun () ->
         Uctx.sleep (Time.ms 1);
         let fd = Uctx.connect "svc" in
         Uctx.write_all fd "hello";
         Uctx.close fd));
  Kernel.run k;
  Alcotest.(check string) "data before EOF" "hello" !got;
  Alcotest.(check string) "EOF is sticky" "eof" !eof

let test_close_wakes_blocked_acceptor () =
  let k = Kernel.boot () in
  let outcome = ref "unset" in
  ignore
    (Kernel.spawn k ~name:"server" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"svc" ~backlog:1 in
         ignore
           (Uctx.lwp_create
              ~entry:(fun () ->
                match Uctx.accept lfd with
                | _ -> outcome := "accepted"
                | exception Errno.Unix_error (Errno.ECONNABORTED, _) ->
                    outcome := "aborted")
              ());
         Uctx.sleep (Time.ms 5);
         Uctx.close lfd));
  Kernel.run k;
  Alcotest.(check string) "acceptor woken with abort" "aborted" !outcome

let test_backpressure_blocks_writer () =
  let k = Kernel.boot () in
  let chunk = 8192 (* = Socket.default_capacity: one chunk fills it *) in
  let write_done = ref Time.zero and drained = ref 0 in
  ignore
    (Kernel.spawn k ~name:"server" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"svc" ~backlog:1 in
         let fd = Uctx.accept lfd in
         (* don't drain for 50ms: the writer's window stays shut *)
         Uctx.sleep (Time.ms 50);
         for _ = 1 to 3 do
           drained := !drained + String.length (Uctx.read_exact fd ~len:chunk)
         done;
         Uctx.close fd;
         Uctx.close lfd));
  ignore
    (Kernel.spawn k ~name:"client" ~main:(fun () ->
         Uctx.sleep (Time.ms 1);
         let fd = Uctx.connect "svc" in
         Uctx.write_all fd (String.make (3 * chunk) 'x');
         write_done := Uctx.gettime ();
         Uctx.close fd));
  Kernel.run k;
  Alcotest.(check int) "all bytes arrived" (3 * 8192) !drained;
  Alcotest.(check bool) "writer blocked until the reader drained" true
    Time.(!write_done >= Time.ms 50)

(* ------------------------------------------------------------------ *)
(* poll over a mixed fd set                                            *)
(* ------------------------------------------------------------------ *)

let test_poll_mixed_fds () =
  let k = Kernel.boot () in
  let log = ref [] in
  let note s = log := s :: !log in
  ignore
    (Kernel.spawn k ~name:"server" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"svc" ~backlog:4 in
         let pr, pw = Uctx.pipe () in
         ignore
           (Uctx.lwp_create
              ~entry:(fun () ->
                Uctx.sleep (Time.ms 2);
                ignore (Uctx.write pw "ping"))
              ());
         (* pipe side fires first *)
         let r1 = Uctx.poll [ pf lfd; pf pr ] in
         if r1 = [ pr ] then note "pipe";
         ignore (Uctx.read pr ~len:16);
         (* then the listener becomes acceptable *)
         let r2 = Uctx.poll [ pf lfd; pf pr ] in
         if r2 = [ lfd ] then note "listen";
         let fd = Uctx.accept lfd in
         (* and finally the connected stream carries data *)
         let r3 = Uctx.poll [ pf fd; pf lfd; pf pr ] in
         if r3 = [ fd ] then note "stream";
         note (Uctx.read_exact fd ~len:2);
         Uctx.close fd;
         Uctx.close pr;
         Uctx.close pw;
         Uctx.close lfd));
  ignore
    (Kernel.spawn k ~name:"client" ~main:(fun () ->
         Uctx.sleep (Time.ms 5);
         let fd = Uctx.connect "svc" in
         Uctx.sleep (Time.ms 3);
         Uctx.write_all fd "hi";
         Uctx.sleep (Time.ms 2);
         Uctx.close fd));
  Kernel.run k;
  Alcotest.(check (list string))
    "readiness arrived in order"
    [ "pipe"; "listen"; "stream"; "hi" ]
    (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Observability: trace records and /proc counts                       *)
(* ------------------------------------------------------------------ *)

let test_trace_and_procfs () =
  let k = Kernel.boot () in
  Kernel.set_tracing k true;
  let counts = ref (0, 0) in
  ignore
    (Kernel.spawn k ~name:"server" ~main:(fun () ->
         let lfd = Uctx.listen ~name:"svc" ~backlog:1 in
         let fd = Uctx.accept lfd in
         ignore (Uctx.read_exact fd ~len:2);
         (* one connected socket + one listener open right now *)
         (counts :=
            match Procfs.snapshot k with
            | pi :: _ -> (pi.Procfs.pi_nsocks, pi.Procfs.pi_nlisten)
            | [] -> (-1, -1));
         Uctx.close fd;
         Uctx.close lfd));
  ignore
    (Kernel.spawn k ~name:"client" ~main:(fun () ->
         Uctx.sleep (Time.ms 1);
         let fd = Uctx.connect "svc" in
         Uctx.write_all fd "hi";
         Uctx.sleep (Time.ms 2);
         Uctx.close fd));
  Kernel.run k;
  Alcotest.(check (pair int int)) "procfs socket counts" (1, 1) !counts;
  let tags =
    List.sort_uniq compare
      (List.map
         (fun r -> r.Sunos_sim.Tracebuf.tag)
         (Kernel.trace_records k))
  in
  List.iter
    (fun t ->
      Alcotest.(check bool) (t ^ " traced") true (List.mem t tags))
    [ "listen"; "connect"; "accept" ]

(* ------------------------------------------------------------------ *)
(* Byte-queue model                                                    *)
(* ------------------------------------------------------------------ *)

(* Random scripts of writes, deliveries, reads, closes and aborts run
   against the kernel objects directly and against a plain-string model;
   after every step the results, the byte counts and the readiness must
   agree.  The byte queue keeps bytes as a string and a read offset and
   hands chunks through without copying, so the scripts mix reads that
   split a chunk, deliveries into a non-empty queue and closes with data
   still on the wire. *)

module Socket = Sunos_kernel.Socket
module Pipe = Sunos_kernel.Pipe
module Eventq = Sunos_sim.Eventq
module Net = Sunos_hw.Devices.Net

type op =
  | Write of int
  | Deliver  (* sockets: the next transfer completes *)
  | Read of int
  | Close_writer
  | Close_reader
  | Abort  (* sockets: mid-stream RST *)

let pp_op = function
  | Write n -> Printf.sprintf "write %d" n
  | Deliver -> "deliver"
  | Read n -> Printf.sprintf "read %d" n
  | Close_writer -> "close-writer"
  | Close_reader -> "close-reader"
  | Abort -> "abort"

let model_cap = 48

(* Every written byte is distinct from its neighbours, so a read that
   returns bytes from the wrong offset cannot pass for the right one. *)
let fresh =
  let next = ref 0 in
  fun n ->
    let base = !next in
    next := base + n;
    String.init n (fun i -> Char.chr (32 + ((base + i) mod 95)))

(* The model of one direction: [wire] holds the chunks accepted and not
   yet delivered, oldest first; [buf] the bytes delivered and not read.
   Whichever transfer completes, the oldest chunk lands: a stream keeps
   byte order. *)
type model = {
  mutable wire : string list;
  mutable buf : string;
  mutable wclosed : bool;
  mutable rclosed : bool;
  mutable reset : bool;
}

let new_model () =
  { wire = []; buf = ""; wclosed = false; rclosed = false; reset = false }

let wire_bytes m = List.fold_left (fun a c -> a + String.length c) 0 m.wire
let eof m = m.wclosed && m.buf = "" && m.wire = []

let take m n =
  let out = String.sub m.buf 0 n in
  m.buf <- String.sub m.buf n (String.length m.buf - n);
  out

let fail_at step op what =
  QCheck.Test.fail_reportf "step %d (%s): %s" step (pp_op op) what

let check_eq step op what pp a b =
  if a <> b then
    fail_at step op (Printf.sprintf "%s: got %s, model %s" what (pp a) (pp b))

let pp_read = function
  | `Data s -> Printf.sprintf "Data %S" s
  | `Eof -> "Eof"
  | `Empty -> "Empty"
  | `Reset -> "Reset"

let pp_write = function
  | `Accepted n -> Printf.sprintf "Accepted %d" n
  | `Full -> "Full"
  | `Reset -> "Reset"

(* Client writes, server reads: the client-to-server direction of one
   connection. *)
let run_socket_script ops =
  let q = Eventq.create () in
  let net = Net.create ~eventq:q ~rtt:(Sunos_sim.Time.us 100) () in
  let c, s = Socket.pair ~net ~capacity:model_cap () in
  let m = new_model () in
  List.iteri
    (fun step op ->
      (match op with
      | Write n when not m.wclosed ->
          let data = fresh n in
          let want =
            if m.reset || m.rclosed then `Reset
            else
              let k = min n (model_cap - String.length m.buf - wire_bytes m) in
              if k = 0 then `Full
              else begin
                m.wire <- m.wire @ [ String.sub data 0 k ];
                `Accepted k
              end
          in
          check_eq step op "write" pp_write (Socket.write c data) want
      | Write _ -> ()
      | Deliver -> (
          match m.wire with
          | [] -> ()
          | chunk :: rest ->
              m.wire <- rest;
              if not (m.rclosed || m.reset) then m.buf <- m.buf ^ chunk;
              ignore (Eventq.run_one q : bool))
      | Read len when not m.rclosed ->
          let want =
            if m.reset then `Reset
            else
              let n = min len (String.length m.buf) in
              if n > 0 then `Data (take m n) else if eof m then `Eof else `Empty
          in
          check_eq step op "read" pp_read (Socket.read s ~len) want
      | Read _ -> ()
      | Close_writer ->
          m.wclosed <- true;
          Socket.close c
      | Close_reader ->
          (* unread or undelivered bytes make the close abortive *)
          if (not m.rclosed) && (m.buf <> "" || m.wire <> []) then
            m.reset <- true;
          m.rclosed <- true;
          m.buf <- "";
          Socket.close s
      | Abort ->
          m.reset <- true;
          m.buf <- "";
          Socket.abort c);
      let buffered = if m.reset then 0 else String.length m.buf in
      check_eq step op "buffered" string_of_int (Socket.buffered s) buffered;
      check_eq step op "window" string_of_int (Socket.window c)
        (model_cap - buffered - wire_bytes m);
      check_eq step op "readable" string_of_bool (Socket.readable s)
        (m.reset || m.buf <> "" || eof m);
      check_eq step op "writable" string_of_bool (Socket.writable c)
        (m.reset || m.rclosed || model_cap - buffered - wire_bytes m > 0))
    ops;
  true

let run_pipe_script ops =
  let p = Pipe.create ~capacity:model_cap () in
  let m = new_model () in
  List.iteri
    (fun step op ->
      (match op with
      | Write n when not m.wclosed ->
          let data = fresh n in
          let k = min n (model_cap - String.length m.buf) in
          m.buf <- m.buf ^ String.sub data 0 k;
          check_eq step op "write" string_of_int (Pipe.write p data) k
      | Read len when not m.rclosed ->
          let want = take m (min len (String.length m.buf)) in
          check_eq step op "read" (Printf.sprintf "%S") (Pipe.read p ~len) want
      | Write _ | Read _ | Deliver | Abort -> ()
      | Close_writer ->
          m.wclosed <- true;
          Pipe.close_write p
      | Close_reader ->
          m.rclosed <- true;
          Pipe.close_read p);
      check_eq step op "buffered" string_of_int (Pipe.buffered p)
        (String.length m.buf);
      check_eq step op "readable" string_of_bool (Pipe.readable p)
        (m.buf <> "" || m.wclosed);
      check_eq step op "writable" string_of_bool (Pipe.writable p)
        (String.length m.buf < model_cap || m.rclosed);
      check_eq step op "EOF" string_of_bool (Pipe.write_closed p) m.wclosed)
    ops;
  true

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun n -> Write n) (int_bound (model_cap + 16)));
        (6, return Deliver);
        (6, map (fun n -> Read n) (int_bound (model_cap / 2)));
        (1, return Close_writer);
        (1, return Close_reader);
        (1, return Abort);
      ])

let arb_script =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 40) gen_op)

let prop_socket =
  QCheck.Test.make ~name:"socket byte queue matches the string model"
    ~count:500 arb_script run_socket_script

let prop_pipe =
  QCheck.Test.make ~name:"pipe byte queue matches the string model"
    ~count:500 arb_script run_pipe_script

(* Fixed scripts that each hit one case of the queue for certain. *)
let script name ops run =
  Alcotest.test_case name `Quick (fun () ->
      match run ops with
      | true -> ()
      | false | (exception QCheck.Test.Test_fail _) ->
          Alcotest.failf "%s: diverged from the model" name)

let model_cases =
  [
    script "read splits a chunk"
      [ Write 20; Deliver; Read 7; Read 7; Read 7; Read 7 ]
      run_socket_script;
    script "delivery into a non-empty queue"
      [ Write 10; Write 12; Deliver; Read 4; Deliver; Read 30 ]
      run_socket_script;
    script "shorter chunk behind a longer one"
      [ Write 30; Write 3; Deliver; Read 40; Deliver; Read 40 ]
      run_socket_script;
    script "EOF only after in-flight data lands"
      [ Write 9; Close_writer; Read 16; Deliver; Read 4; Read 16; Read 16 ]
      run_socket_script;
    script "pipe: read splits, write appends"
      [ Write 10; Read 3; Write 60; Read 100; Close_writer; Read 4 ]
      run_pipe_script;
    QCheck_alcotest.to_alcotest prop_socket;
    QCheck_alcotest.to_alcotest prop_pipe;
  ]

let () =
  Alcotest.run "sunos_socket"
    [
      ( "admission",
        [
          Alcotest.test_case "backlog overflow deterministic" `Quick
            test_backlog_overflow;
          Alcotest.test_case "name in use" `Quick test_addr_in_use;
        ] );
      ( "streams",
        [
          Alcotest.test_case "EOF after peer close" `Quick
            test_eof_after_peer_close;
          Alcotest.test_case "close wakes acceptor" `Quick
            test_close_wakes_blocked_acceptor;
          Alcotest.test_case "backpressure" `Quick
            test_backpressure_blocks_writer;
        ] );
      ( "poll",
        [ Alcotest.test_case "mixed fd set" `Quick test_poll_mixed_fds ] );
      ( "observability",
        [
          Alcotest.test_case "trace + procfs" `Quick test_trace_and_procfs;
        ] );
      ("byte-queue model", model_cases);
    ]
