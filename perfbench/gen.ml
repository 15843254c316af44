(* The benchmark's inputs, made from [--seed] alone.  The program only
   ever receives these arrays. *)

let bulk_n = 1 lsl 22

(* Kernel rows of the traced run use bulk's generator at this length, so
   the whole layer suite fits in one run's time budget. *)
let layer_n = 1 lsl 20

let online_sizes = [| 512; 1024; 4096; 32768 |]
let online_variants = 3
let piece = 4096

let int_input g n = Array.init n (fun _ -> Rng.int_in g ~lo:(-9) ~hi:9)

let f32_input g n =
  Array.init n (fun _ -> Rng.f32 (Rng.float_in g ~lo:(-1.0) ~hi:1.0))

(* Dense int scan coefficients: a ∈ ±{1,2,3}, b ∈ [-9, 9]. *)
let int_scan g n =
  let a =
    Array.init n (fun _ ->
        let v = Rng.int_in g ~lo:1 ~hi:3 in
        if Rng.int g 2 = 0 then v else -v)
  in
  (a, int_input g n)

(* Contracting f32 scan coefficients: a ∈ [-0.99, 0.99], b ∈ [-1, 1]. *)
let f32_scan g n =
  let a = Array.init n (fun _ -> Rng.f32 (Rng.float_in g ~lo:(-0.99) ~hi:0.99)) in
  (a, f32_input g n)

(* An int coefficient stream that is about 90% identity ([a = 1, b = 0]):
   identity runs of 600–1200 steps alternate with dense runs of 50–150. *)
let identity_scan g n =
  let a = Array.make n 1 and b = Array.make n 0 in
  let i = ref 0 in
  while !i < n do
    i := !i + Rng.int_in g ~lo:600 ~hi:1200;
    let stop = min n (!i + Rng.int_in g ~lo:50 ~hi:150) in
    while !i < stop do
      let v = Rng.int_in g ~lo:1 ~hi:3 in
      a.(!i) <- (if Rng.int g 2 = 0 then v else -v);
      b.(!i) <- Rng.int_in g ~lo:(-9) ~hi:9;
      incr i
    done
  done;
  (a, b)

(* ---- bulk ---- *)

type bulk = {
  n : int;
  ps : int array;
  order2 : int array;
  tuple2 : int array;
  lp2 : float array;
  scan_a : int array;
  scan_b : int array;
}

let bulk ~seed ~n =
  let g tag = Rng.derive seed ("bulk." ^ tag) in
  let scan_a, scan_b = int_scan (g "scan") n in
  {
    n;
    ps = int_input (g "ps") n;
    order2 = int_input (g "order2") n;
    tuple2 = int_input (g "tuple2") n;
    lp2 = f32_input (g "lp2") n;
    scan_a;
    scan_b;
  }

(* ---- online ---- *)

type kind = Rec of int  (** index into the signature mix *) | Scan

type request = {
  at : float;  (** intended arrival, seconds after the schedule starts *)
  kind : kind;
  size : int;  (** index into [online_sizes] *)
  variant : int;  (** which of the pre-made inputs of that shape *)
}

(* Cumulative Zipf(s) weights over [k] items. *)
let zipf_cdf ~s k =
  let w = Array.init k (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let pick cdf u =
  let i = ref 0 in
  while !i < Array.length cdf - 1 && cdf.(!i) <= u do
    incr i
  done;
  !i

(* A seeded permutation of [0, k). *)
let permutation g k =
  let p = Array.init k Fun.id in
  for i = k - 1 downto 1 do
    let j = Rng.int g (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

(* [count] requests at a fixed [rate] (evenly spaced arrivals).  Draws
   are stratified so that every stretch of the schedule carries the same
   work: each block of [1 / scan_frac] requests holds exactly one scan, at
   a seeded position, and each block of four holds each length once, in
   seeded order.  The other requests are Zipf(1.1) draws over
   [signatures] recurrences. *)
let schedule ~seed ~rate ~count ~signatures ~scan_frac =
  let g = Rng.derive seed "online.schedule" in
  let cdf = zipf_cdf ~s:1.1 signatures in
  let sizes = Array.length online_sizes in
  let scan_block = max 1 (int_of_float (Float.round (1.0 /. scan_frac))) in
  let size_order = ref [||] and scan_at = ref 0 in
  Array.init count (fun i ->
      if i mod sizes = 0 then size_order := permutation g sizes;
      if i mod scan_block = 0 then scan_at := Rng.int g scan_block;
      let kind =
        if i mod scan_block = !scan_at then Scan else Rec (pick cdf (Rng.float g))
      in
      {
        at = float_of_int i /. rate;
        kind;
        size = !size_order.(i mod sizes);
        variant = Rng.int g online_variants;
      })

(* Inputs for every (signature, size, variant) of the online mix. *)
let online_inputs ~seed ~signatures =
  Array.init signatures (fun s ->
      Array.mapi
        (fun j n ->
          Array.init online_variants (fun v ->
              f32_input (Rng.derive seed (Printf.sprintf "online.%d.%d.%d" s j v)) n))
        online_sizes)

let online_scan_inputs ~seed =
  Array.mapi
    (fun j n ->
      Array.init online_variants (fun v ->
          f32_scan (Rng.derive seed (Printf.sprintf "online.scan.%d.%d" j v)) n))
    online_sizes
