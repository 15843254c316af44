module Analysis = Plr_nnacci.Analysis

(* Calibration constants (see EXPERIMENTS.md, "Cost-model calibration").
   [general_*] set the efficiency of correction code driven by a general
   factor table; [gather_loss] is the cost of factor loads that miss the
   shared-memory cache (uncoalesced L2 gathers); [ftz_loss] is the cost of
   running the full correction cascade when flush-to-zero is disabled on a
   floating-point recurrence (the dominant Figure 10 effect for filters). *)
let general_base = 0.61
let general_order_gain = 0.48
let decayed_order_loss_linear = 0.125
let decayed_order_loss_quadratic = 0.035
let gather_loss = 0.35
let ftz_loss = 0.62
let odd_tuple_penalty = 0.86
let fir_stage_penalty = 0.83

let is_power_of_two v = v > 0 && v land (v - 1) = 0

module Make (S : Plr_util.Scalar.S) = struct
  module P = Plan.Make (S)

  let of_plan (plan : P.t) =
    let k = plan.P.order in
    let analyses = Array.init k (P.effective_analysis plan) in
    let simple = function
      | Analysis.All_equal _ | Analysis.Zero_one -> true
      | Analysis.Repeating _ | Analysis.Decays_to_zero _ | Analysis.General -> false
    in
    let live_factors =
      match P.zero_tail plan with Some z -> min z plan.P.m | None -> plan.P.m
    in
    (* Fraction of factor loads that miss the shared-memory cache. *)
    let uncached_fraction =
      if Array.for_all simple analyses then 0.0
      else if plan.P.shared_cache_elems = 0 then 1.0
      else if live_factors <= plan.P.shared_cache_elems then 0.0
      else
        1.0
        -. (float_of_int plan.P.shared_cache_elems /. float_of_int live_factors)
    in
    let gather = 1.0 -. (gather_loss *. uncached_fraction) in
    let core =
      if Array.for_all simple analyses then
        (* Fully specialized correction code; conditional-add patterns for
           tuple sizes that are not powers of two cost a little (§6.1.2). *)
        if Array.exists (function Analysis.Zero_one -> true | _ -> false) analyses
           && not (is_power_of_two k)
        then odd_tuple_penalty
        else 1.0
      else
        match P.zero_tail plan with
        | Some _ ->
            (* Decayed filter factors: corrections confined to the short
               live prefix.  Higher orders keep more factors alive and
               chain deeper corrections (§6.2.1: PLR's throughput falls
               faster with the order than Rec's). *)
            let d = float_of_int (k - 1) in
            1.0
            -. (decayed_order_loss_linear *. d)
            -. (decayed_order_loss_quadratic *. d *. d)
        | None ->
            Float.min 1.0 (general_base +. (general_order_gain /. float_of_int k))
    in
    (* Disabling FTZ on a floating-point recurrence re-enables the full
       correction cascade over factors that are numerically dead. *)
    let ftz =
      if S.kind = Plr_util.Scalar.Floating
         && (not plan.P.opts.Plr_factors.Opts.flush_denormals)
      then ftz_loss
      else 1.0
    in
    let fir =
      if Signature.fir_taps plan.P.signature > 1 then fir_stage_penalty else 1.0
    in
    core *. gather *. ftz *. fir
end
