type record = { time : Time.t; tag : string; msg : string }

type t = {
  buf : record option array;
  mutable head : int; (* next write slot *)
  mutable len : int;
  mutable dropped : int;
  mutable enabled : bool;
  mutable interest : (string, unit) Hashtbl.t option;
      (* None = every tag; Some set = only those tags are recorded *)
  tags : (string, string) Hashtbl.t;
      (* intern table: records share one string per distinct tag *)
}

let create ?(capacity = 65536) () =
  {
    buf = Array.make capacity None;
    head = 0;
    len = 0;
    dropped = 0;
    enabled = true;
    interest = None;
    tags = Hashtbl.create 32;
  }

let intern t tag =
  match Hashtbl.find_opt t.tags tag with
  | Some s -> s
  | None ->
      Hashtbl.add t.tags tag tag;
      tag

(* The emit-side gate: [emitf] and Machine.trace check this before
   formatting, so an uninterested record is never formatted.  It is not
   free by itself: the [ikfprintf] that swallows the arguments still
   allocates a closure per argument.  Hot call sites (the kernel's) test
   it first — [if tracing k tag then trace k tag ...] — and so build no
   arguments at all when nothing will read the buffer. *)
let interested t ~tag =
  t.enabled
  &&
  match t.interest with
  | None -> true
  | Some set -> Hashtbl.mem set tag

let set_interest t tags =
  t.interest <-
    (match tags with
    | None -> None
    | Some l ->
        let set = Hashtbl.create (List.length l) in
        List.iter (fun tag -> Hashtbl.replace set tag ()) l;
        Some set)

let emit t ~time ~tag msg =
  if interested t ~tag then begin
    let tag = intern t tag in
    let cap = Array.length t.buf in
    if t.len = cap then t.dropped <- t.dropped + 1 else t.len <- t.len + 1;
    t.buf.(t.head) <- Some { time; tag; msg };
    t.head <- (t.head + 1) mod cap
  end

let emitf t ~time ~tag fmt =
  if interested t ~tag then
    Format.kasprintf (fun msg -> emit t ~time ~tag msg) fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let records t =
  let cap = Array.length t.buf in
  let start = (t.head - t.len + cap) mod cap in
  let rec go i acc =
    if i = t.len then List.rev acc
    else
      match t.buf.((start + i) mod cap) with
      | None -> go (i + 1) acc
      | Some r -> go (i + 1) (r :: acc)
  in
  go 0 []

let find t ~tag = List.filter (fun r -> r.tag = tag) (records t)

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) None;
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0

let dropped t = t.dropped

let pp ppf t =
  List.iter
    (fun r -> Format.fprintf ppf "[%a] %-12s %s@." Time.pp r.time r.tag r.msg)
    (records t)

let enabled t = t.enabled
let set_enabled t b = t.enabled <- b
