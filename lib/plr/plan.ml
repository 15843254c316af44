module Analysis = Plr_nnacci.Analysis
module Spec = Plr_gpusim.Spec

module Make (S : Plr_util.Scalar.S) = struct
  module F = Plr_factors.Factor_plan.Make (S)

  type t = {
    signature : S.t Signature.t;
    order : int;
    n : int;
    x : int;
    m : int;
    threads_per_block : int;
    regs_per_thread : int;
    grid_blocks : int;
    lookback_window : int;
    fplan : F.t;
    shared_cache_elems : int;
    opts : Plr_factors.Opts.t;
  }

  (* "Integer signatures that only contain ones and zeros" get 32 registers
     per thread; other integer signatures 64 (paper §3).  We also admit -1,
     which costs no multiplier either. *)
  let simple_coeff c = S.is_zero c || S.is_one c || S.equal c (S.neg S.one)

  let registers_for (s : S.t Signature.t) =
    match S.kind with
    | Plr_util.Scalar.Floating -> 32
    | Plr_util.Scalar.Integer ->
        if Array.for_all simple_coeff s.forward && Array.for_all simple_coeff s.feedback
        then 32
        else 64

  let max_x = match S.kind with Plr_util.Scalar.Floating -> 9 | Plr_util.Scalar.Integer -> 11

  let compile_with ?(opts = Plr_factors.Opts.all_on) ?(lookback_window = 32) ~spec ~n
      ~threads_per_block ~x (signature : S.t Signature.t) =
    if n < 1 then invalid_arg "Plan.compile: n must be positive";
    if x < 1 then invalid_arg "Plan.compile: x must be positive";
    if threads_per_block < 1 then
      invalid_arg "Plan.compile: threads_per_block must be positive";
    if lookback_window < 1 then
      invalid_arg "Plan.compile: the look-back window must be positive";
    let order = Signature.order signature in
    let regs_per_thread = registers_for signature in
    let grid_blocks = Spec.resident_blocks spec ~threads_per_block ~regs_per_thread in
    let m = threads_per_block * x in
    let fplan = F.of_feedback ~opts ~feedback:signature.feedback ~m () in
    let shared_cache_elems =
      if opts.Plr_factors.Opts.cache_factors_in_shared then begin
        (* Clamp the per-list budget so k cached lists (plus slack for the
           carry staging) fit the block's shared memory. *)
        let cap =
          spec.Spec.shared_bytes_per_block * 3 / 4 / (max 1 order * S.bytes)
        in
        min m (min opts.Plr_factors.Opts.shared_cache_budget cap)
      end
      else 0
    in
    {
      signature;
      order;
      n;
      x;
      m;
      threads_per_block;
      regs_per_thread;
      grid_blocks;
      lookback_window;
      fplan;
      shared_cache_elems;
      opts;
    }

  let compile ?opts ~spec ~n (signature : S.t Signature.t) =
    let threads_per_block = spec.Spec.max_threads_per_block in
    let regs_per_thread = registers_for signature in
    let grid_blocks = Spec.resident_blocks spec ~threads_per_block ~regs_per_thread in
    (* Smallest x with x·1024·T > n, clamped to the register-file limit
       (§3: x ≤ 9 for floating-point, x ≤ 11 for integer signatures). *)
    let x_unclamped = (n / (threads_per_block * grid_blocks)) + 1 in
    let x = max 1 (min max_x x_unclamped) in
    compile_with ?opts ~spec ~n ~threads_per_block ~x signature

  let num_chunks t = (t.n + t.m - 1) / t.m

  let chunk_len t c =
    let start = c * t.m in
    min t.m (t.n - start)

  let factors t = t.fplan.F.raw
  let analyses t = t.fplan.F.analyses
  let zero_tail t = t.fplan.F.zero_tail
  let effective_analysis t j = F.effective t.fplan j
  let factor_table_bytes t = F.table_bytes t.fplan

  let pp_summary fmt t =
    Format.fprintf fmt
      "@[<v>signature: %s@,order k = %d, n = %d@,x = %d, m = %d, %d threads/block, %d regs/thread@,\
       grid T = %d, look-back window = %d@,factor analyses: %s@,zero tail: %s@]"
      (Signature.to_string S.to_string t.signature)
      t.order t.n t.x t.m t.threads_per_block t.regs_per_thread t.grid_blocks
      t.lookback_window
      (String.concat "; "
         (Array.to_list (Array.map (Analysis.to_string S.to_string) (analyses t))))
      (match zero_tail t with None -> "none" | Some z -> string_of_int z)
end
