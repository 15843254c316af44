(* Tests for the CUDA emitter: presence and order of the paper's eight code
   sections, specialization decisions driven by the factor analyses,
   embedded factor values, and determinism. *)

module Scalar = Plr_util.Scalar
module Spec = Plr_gpusim.Spec

module Ei = Plr_codegen.Emit.Make (Scalar.Int)
module Ef = Plr_codegen.Emit.Make (Scalar.F32)
module Pi = Ei.P
module Pf = Ef.P
module Opts = Plr_factors.Opts

let spec = Spec.titan_x
let check_bool = Alcotest.(check bool)

let int_sig fwd fbk = Signature.create ~is_zero:(fun c -> c = 0) ~forward:fwd ~feedback:fbk
let f32_sig text = Signature.map Plr_util.F32.round (Parse.signature_exn text)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let index_of hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = if i + nn > nh then None else if String.sub hay i nn = needle then Some i else go (i + 1) in
  go 0

let cuda_int ?opts s = Ei.cuda (Pi.compile ?opts ~spec ~n:(1 lsl 24) s)
let cuda_f32 ?opts s = Ef.cuda (Pf.compile ?opts ~spec ~n:(1 lsl 24) s)

let prefix_sum = int_sig [| 1 |] [| 1 |]
let tuple2 = int_sig [| 1 |] [| 0; 1 |]
let order2 = int_sig [| 1 |] [| 2; -1 |]

(* ---------------------------------------------------------------- sections *)

let test_sections_present_and_ordered () =
  let code = cuda_int order2 in
  let sections =
    [ "// Section 1"; "// Section 2"; "// Section 3"; "// Section 4";
      "// Section 5"; "// Section 6"; "// Section 7"; "// Section 8" ]
  in
  let rec ordered pos = function
    | [] -> true
    | s :: rest -> (
        match index_of code s with
        | Some i when i >= pos -> ordered i rest
        | _ -> false)
  in
  check_bool "all eight sections, in order" true (ordered 0 sections)

let test_kernel_skeleton () =
  let code = cuda_int order2 in
  List.iter
    (fun needle -> check_bool needle true (contains code needle))
    [ "__global__ void plr_kernel";
      "atomicAdd(&chunk_counter";
      "__shfl_up_sync";
      "__syncthreads()";
      "__threadfence()";
      "local_carries";
      "global_carries";
      "serial_reference";
      "int main(";
      "PASSED";
      "cudaMalloc" ]

let test_braces_balanced () =
  let code = cuda_int order2 in
  let depth = ref 0 in
  String.iter
    (fun c ->
      if c = '{' then incr depth else if c = '}' then decr depth;
      if !depth < 0 then Alcotest.fail "unbalanced braces")
    code;
  Alcotest.(check int) "balanced" 0 !depth

let test_signature_in_header () =
  check_bool "comment carries the signature" true
    (contains (cuda_int order2) "// signature: (1: 2, -1)")

(* ----------------------------------------------------------- specialization *)

let test_prefix_sum_folds_factors () =
  let code = cuda_int prefix_sum in
  check_bool "array suppressed" true (contains code "array suppressed");
  check_bool "no factor table emitted" false (contains code "factors_0[M]")

let test_tuple_conditional_add () =
  let code = cuda_int tuple2 in
  check_bool "conditional add comment" true (contains code "conditional add");
  check_bool "modulo test" true (contains code "% 2)")

let test_general_full_table () =
  let code = cuda_int order2 in
  check_bool "full factor table" true (contains code "factors_0[11264]");
  (* first correction factors of (0: 2, -1) are 2, 3, 4 … *)
  check_bool "factor values embedded" true (contains code "2, 3, 4, 5, 6, 7, 8");
  check_bool "second list" true (contains code "factors_1[11264]")

let test_filter_truncated_table () =
  let code = cuda_f32 (f32_sig "(0.2: 0.8)") in
  check_bool "decay comment" true (contains code "decays to zero at index");
  check_bool "float type" true (contains code "typedef float T;");
  check_bool "first factor 0.8" true (contains code "8.0000");
  check_bool "no full table" false (contains code "factors_0[M]")

let test_opts_off_disables_specialization () =
  let code = cuda_int ~opts:Opts.all_off prefix_sum in
  check_bool "full table even for prefix sum" true (contains code "factors_0[11264]");
  check_bool "no shared cache" true (contains code "#define FCACHE 0")

let test_map_stage_suppression () =
  let pure = cuda_int order2 in
  check_bool "pure recurrence suppresses map" true
    (contains pure "map stage suppressed");
  let hp = cuda_f32 (f32_sig "(0.9, -0.9: 0.8)") in
  check_bool "high-pass emits map stage" true
    (contains hp "Section 3: map stage (non-recursive coefficients)")

let test_validation_mode_per_domain () =
  let int_code = cuda_int order2 in
  check_bool "ints compare exactly" true (contains int_code "h_out[i] != h_ref[i]");
  let f_code = cuda_f32 (f32_sig "(0.2: 0.8)") in
  check_bool "floats use 1e-3 tolerance" true (contains f_code "1e-3")

(* -------------------------------------------------------------- invariants *)

let test_deterministic () =
  Alcotest.(check string) "same plan, same code" (cuda_int order2) (cuda_int order2)

let test_factor_initializer_api () =
  let plan = Pi.compile ~spec ~n:(1 lsl 24) prefix_sum in
  check_bool "all-equal list has no initializer" true
    (Ei.factor_initializer plan 0 = None);
  let plan2 = Pi.compile ~spec ~n:(1 lsl 24) order2 in
  (match Ei.factor_initializer plan2 0 with
  | Some init -> check_bool "starts with brace" true (String.length init > 0 && init.[0] = '{')
  | None -> Alcotest.fail "general list needs a table");
  Alcotest.(check int) "summary lines" 2 (List.length (Ei.specialization_summary plan2))

let test_all_table1_emit () =
  List.iter
    (fun e ->
      let code =
        match Parse.to_int_signature e.Table1.signature with
        | Some s -> cuda_int s
        | None -> cuda_f32 (Signature.map Plr_util.F32.round e.Table1.signature)
      in
      check_bool (e.Table1.name ^ " emits a kernel") true
        (contains code "__global__ void plr_kernel");
      check_bool (e.Table1.name ^ " emits main") true (contains code "int main("))
    Table1.all

let test_specialize_plan_consistency () =
  (* Specialize.table_elems and Plan.factor_table_bytes implement the same
     §3.1 decisions through different code paths; they must agree. *)
  let module Sp = Plr_codegen.Specialize.Make (Scalar.Int) in
  let gen2 = Plr_util.Splitmix.create 67 in
  for _ = 1 to 100 do
    let k = Plr_util.Splitmix.int_in gen2 ~lo:1 ~hi:3 in
    let fb =
      Array.init k (fun i ->
          let v = Plr_util.Splitmix.int_in gen2 ~lo:(-2) ~hi:2 in
          if i = k - 1 && v = 0 then 1 else v)
    in
    let s = int_sig [| 1 |] fb in
    let plan = Pi.compile ~spec ~n:50000 s in
    let from_specialize =
      List.fold_left ( + ) 0 (List.init k (fun j -> Sp.table_elems plan j)) * 4
    in
    if from_specialize <> Pi.factor_table_bytes plan then
      Alcotest.failf "inconsistent for %s: %d vs %d"
        (Signature.to_string string_of_int s)
        from_specialize (Pi.factor_table_bytes plan)
  done

let prop_emission_total =
  (* the emitter must succeed on arbitrary valid signatures *)
  let gen_sig =
    QCheck2.Gen.(
      let coeff = int_range (-3) 3 in
      let tail = map (fun v -> if v = 0 then 1 else v) coeff in
      map2
        (fun (f, fl) (b, bl) ->
          int_sig (Array.of_list (f @ [ fl ])) (Array.of_list (b @ [ bl ])))
        (pair (list_size (int_range 0 2) coeff) tail)
        (pair (list_size (int_range 0 2) coeff) tail))
  in
  QCheck2.Test.make ~name:"emitter succeeds on random signatures" ~count:50 gen_sig
    (fun s ->
      let code = cuda_int s in
      String.length code > 1000 && contains code "plr_kernel")

let () =
  Alcotest.run "plr_codegen"
    [
      ( "structure",
        [
          Alcotest.test_case "sections ordered" `Quick test_sections_present_and_ordered;
          Alcotest.test_case "kernel skeleton" `Quick test_kernel_skeleton;
          Alcotest.test_case "braces balanced" `Quick test_braces_balanced;
          Alcotest.test_case "signature header" `Quick test_signature_in_header;
        ] );
      ( "specialization",
        [
          Alcotest.test_case "prefix sum folds" `Quick test_prefix_sum_folds_factors;
          Alcotest.test_case "tuple conditional add" `Quick test_tuple_conditional_add;
          Alcotest.test_case "general full table" `Quick test_general_full_table;
          Alcotest.test_case "filter truncated" `Quick test_filter_truncated_table;
          Alcotest.test_case "opts off" `Quick test_opts_off_disables_specialization;
          Alcotest.test_case "map suppression" `Quick test_map_stage_suppression;
          Alcotest.test_case "validation mode" `Quick test_validation_mode_per_domain;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "initializer api" `Quick test_factor_initializer_api;
          Alcotest.test_case "all Table 1 entries" `Quick test_all_table1_emit;
          Alcotest.test_case "specialize/plan consistency" `Quick
            test_specialize_plan_consistency;
          QCheck_alcotest.to_alcotest prop_emission_total;
        ] );
    ]
