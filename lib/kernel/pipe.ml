(* A pipe is one {!Byteq} direction written and read on the spot: no
   wire, so [wire] stays empty and nothing stalls. *)

type t = Byteq.t

let default_capacity = 5120
let create ?(capacity = default_capacity) () = Byteq.create capacity
let buffered = Byteq.buffered
let readable (t : t) = Byteq.buffered t > 0 || t.wclosed
let writable (t : t) = Byteq.buffered t < t.capacity || t.rclosed
let read_closed (t : t) = t.rclosed
let write_closed (t : t) = t.wclosed

let read t ~len =
  let n = min len (Byteq.buffered t) in
  if n <= 0 then ""
  else begin
    let out = Byteq.take t n in
    Byteq.fire_write_waiters t;
    out
  end

let write (t : t) s =
  let room = t.capacity - Byteq.buffered t in
  let n = min room (String.length s) in
  if n > 0 then begin
    Byteq.push t (if n = String.length s then s else String.sub s 0 n);
    Byteq.fire_read_waiters t
  end;
  n

let close_read (t : t) =
  t.rclosed <- true;
  Byteq.fire_write_waiters t

let close_write (t : t) =
  t.wclosed <- true;
  Byteq.fire_read_waiters t

let on_readable (t : t) f =
  if readable t then f () else t.read_waiters <- f :: t.read_waiters

let on_writable (t : t) f =
  if writable t then f () else t.write_waiters <- f :: t.write_waiters

let attach_readable = Byteq.attach_readable
let attach_writable = Byteq.attach_writable
let watched_by = Byteq.watched_by
