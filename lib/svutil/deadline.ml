(* Absolute expiry time in clock milliseconds; [infinity] never
   expires, so [none] checks are a float compare with no clock read. *)
type t = float

exception Expired

external now_ms : unit -> (float[@unboxed])
  = "sv_monotonic_ms_byte" "sv_monotonic_ms"
[@@noalloc]

let none = infinity
let is_none t = t = infinity
let after_ms budget = now_ms () +. budget
let of_ms_opt = function None -> none | Some b -> after_ms b
let expired t = t < infinity && now_ms () >= t
let check t = if expired t then raise Expired

let remaining_ms t =
  if t = infinity then None else Some (Float.max 0. (t -. now_ms ()))
