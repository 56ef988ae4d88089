(* A fixed pure-OCaml loop whose speed stands for the host's: run.py
   states host times at a reference speed of this loop.  Building a
   100k-entry integer map allocates and chases pointers the way the
   simulator does, so it slows down when the host does.  Prints ns per
   insert, process CPU time. *)

module M = Map.Make (Int)

let inserts = 100_000

let pass () =
  let m = ref M.empty in
  for i = 1 to inserts do
    m := M.add ((i * 7919) land 0xfffff) i !m
  done;
  ignore (Sys.opaque_identity (M.fold (fun _ v acc -> acc + v) !m 0))

(* The first pass grows the heap, whose page faults cost the host's
   memory manager, not the loop; the median of the next three is the
   sample.  [calib.exe start] exits at once: a bare OCaml process start,
   the reference for set-up time. *)
let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "start" then exit 0;
  pass ();
  let timed () =
    let t0 = Sys.time () in
    pass ();
    (Sys.time () -. t0) *. 1e9 /. float_of_int inserts
  in
  match List.sort compare (List.init 3 (fun _ -> timed ())) with
  | [ _; m; _ ] -> Printf.printf "%.17g\n" m
  | _ -> assert false
