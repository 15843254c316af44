(* Exact statistics over raw samples: no buckets, no sketches. *)

(* A growable buffer of float samples; one per recording domain. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create ?(capacity = 1024) () = { a = Array.make (max 1 capacity) 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
  let concat ts = Array.concat (List.map to_array ts)
end

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* The [q]-quantile of an ascending array by linear interpolation between
   closest ranks (Hyndman & Fan type 7, as numpy and Python's
   [statistics.quantiles(method="inclusive")] compute it).  NaN when
   empty. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then Float.nan
  else if n = 1 then s.(0)
  else begin
    let h = Float.min 1.0 (Float.max 0.0 q) *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    let f = h -. float_of_int lo in
    if f = 0.0 then s.(lo) else s.(lo) +. (f *. (s.(hi) -. s.(lo)))
  end

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5

(* Samples strictly greater than [v] in an ascending array. *)
let beyond_sorted s v =
  let n = Array.length s in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.(mid) <= v then lo := mid + 1 else hi := mid
  done;
  n - !lo

(* One quantile with the evidence behind it. *)
type q = { value : float; samples : int; beyond : int }

let summarize a q =
  let s = sorted a in
  let value = quantile_sorted s q in
  { value; samples = Array.length s; beyond = beyond_sorted s value }
