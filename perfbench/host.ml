(* Host time is the process's CPU time, user plus system.  The program
   runs on one domain, so on an idle host this is its wall-clock time;
   unlike wall-clock time it does not grow while other processes hold
   the CPU. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
