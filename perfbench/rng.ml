(* The benchmark's own generator (SplitMix64), independent of the
   program's [Plr_util.Splitmix], so a change to the program cannot change
   the inputs it is measured on. *)

type t = { mutable s : int64 }

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let make seed = { s = mix (Int64.of_int seed) }

(* An independent stream for one purpose ([tag]) of one seed. *)
let derive seed tag = make ((seed * 1_000_003) + Hashtbl.hash tag)

let next t =
  t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
  mix t.s

(* Uniform in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))

let int_in t ~lo ~hi = lo + int t (hi - lo + 1)

(* Uniform in [0, 1). *)
let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

let float_in t ~lo ~hi = lo +. ((hi -. lo) *. float t)

(* Round a double to the nearest binary32 value, as the F32 scalar
   stores it. *)
let f32 x = Int32.float_of_bits (Int32.bits_of_float x)
