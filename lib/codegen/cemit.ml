(* The native-CPU counterpart of {!Emit}: translate a compiled plan into a
   self-contained C translation unit the JIT runtime ([Plr_jit]) compiles
   with the system cc and dlopens.  Two entry points are emitted:

   - [plr_jit_run] — the dispatched fast path: a fully specialized serial
     FIR+feedback kernel with every coefficient baked into the code as a
     constant, operating on raw restrict pointers.  Its operation order
     replicates [Serial.full] exactly (zero-initialized accumulator, taps
     in increasing lag order, then feedback terms j = 1..k against final
     previous outputs), so for integer scalars — and, compiled with
     contraction and fast-math off, for float scalars too — the output is
     bitwise identical to the OCaml serial reference.
   - [plr_jit_run_chunked] — the paper's §3 two-phase chunked algorithm
     with the correction-factor sweeps specialized per {!Factor_plan}
     class: all-equal lists fold into constants (or a bare add for 1, or
     nothing for 0), zero/one lists become bitmask-predicated conditional
     adds, repeating lists store one period, decayed lists truncate at the
     zero tail, dense lists keep the full static table.  Operation order
     mirrors [Multicore.run_sequential_k], so results are bitwise
     identical to the sequential-fallback backend at the same chunk size.

   Both entries carry the k feedback values in registers, rotated once
   per element, so the loop-carried chain never goes through memory.
   Binary64 kernels compute in [double].  F32 kernels compute in C
   [float]: one binary64 [+] or [*] of binary32 operands, rounded once to
   binary32, equals the binary32 operation, because binary64's 53 bits
   are at least 2*24 + 2 (Figueroa 1995), so the native operation is
   bitwise identical to [Scalar.F32]'s round-after-every-op arithmetic.
   Every literal of an F32 unit must therefore be a binary32 value, and
   the unit refuses to compile where [FLT_EVAL_METHOD] is not 0 (excess
   precision would break the identity).  Native ints are 63-bit, so
   integer kernels accumulate modulo 2^64 (in uint64_t, where wrap-around
   is defined) and renormalize to 63 bits at each store — congruent mod
   2^63, hence bit-equal to OCaml. *)

module Make (S : Plr_util.Scalar.S) = struct
  module P = Plr_core.Plan.Make (S)
  module F = P.F

  let supported =
    match S.rep with
    | Plr_util.Scalar.Int_rep -> true
    | Plr_util.Scalar.Float_rep _ -> true
    | Plr_util.Scalar.Other_rep -> false

  let is_int =
    match S.rep with Plr_util.Scalar.Int_rep -> true | _ -> false

  let is_f32 =
    match S.rep with
    | Plr_util.Scalar.Float_rep Plr_util.Scalar.Round_f32 -> true
    | _ -> false

  (* Exact literals: C99 hex floats round-trip every finite binary64;
     non-finite factor values (an unstable signature's overflowed tables)
     go through a bit-pattern constructor. *)
  let flit f =
    if Float.is_finite f then Printf.sprintf "%h" f
    else Printf.sprintf "plr_from_bits(UINT64_C(0x%Lx))" (Int64.bits_of_float f)

  (* An F32 unit computes in binary32, so each of its literals must be a
     binary32 value; anything else would silently change the arithmetic. *)
  let exact32 f =
    let r = Int32.float_of_bits (Int32.bits_of_float f) in
    if Int64.bits_of_float r <> Int64.bits_of_float f then
      invalid_arg
        (Printf.sprintf "Cemit: literal %h is not exactly representable in binary32" f);
    f

  let flit32 f =
    let f = exact32 f in
    if Float.is_finite f then Printf.sprintf "%hf" f
    else
      Printf.sprintf "plr_from_bits32(UINT32_C(0x%lx))" (Int32.bits_of_float f)

  let lit (v : S.t) =
    match S.rep with
    | Plr_util.Scalar.Int_rep -> Printf.sprintf "INT64_C(%d)" v
    | Plr_util.Scalar.Float_rep Plr_util.Scalar.Round_f32 -> flit32 v
    | Plr_util.Scalar.Float_rep Plr_util.Scalar.Exact -> flit v
    | Plr_util.Scalar.Other_rep -> invalid_arg "Cemit.lit: unsupported scalar"

  (* An F32 literal spelled as a double, for a product taken in binary64. *)
  let lit64 (v : S.t) =
    match S.rep with
    | Plr_util.Scalar.Float_rep Plr_util.Scalar.Round_f32 -> flit (exact32 v)
    | _ -> lit v

  (* [ctype] is the storage type of x and y (OCaml's flat arrays hold
     binary32 values as doubles); [wtype] is what the kernel computes in
     and what the feedback registers hold. *)
  let ctype = if is_int then "int64_t" else "double"
  let wtype = if is_int then "int64_t" else if is_f32 then "float" else "double"

  (* A stored y value as a working value: exact, since an F32 unit only
     ever stores binary32 results. *)
  let load_w e = if is_f32 then "(float)" ^ e else e

  let scalar_comment =
    if is_int then "native 63-bit int (accumulated mod 2^64, renormalized at stores)"
    else if is_f32 then "binary32 (native C float arithmetic)"
    else "binary64"

  (* One fused FIR + feedback term sequence for output index [i],
     accumulating into [a]; [guard_tap t] / [guard_fb j] emit the prologue
     bound checks (empty in the steady state).  Mirrors [Serial.full]'s
     operation order exactly.  Taps load through [srcx] (so the
     tagged-representation kernel can reuse the sequence); feedback terms
     read the registers, [f1] holding y[i-1] up to [fk] holding y[i-k]. *)
  let plain_srcx t = Printf.sprintf "x[i - %d]" t
  let reg j = Printf.sprintf "f%d" j

  let emit_terms b ~s ~guard_tap ~guard_fb ~srcx =
    let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    let forward = s.Signature.forward and feedback = s.Signature.feedback in
    let term ~tap coeff src =
      if is_int then begin
        (* skipping zero terms and eliding unit multiplies is exact in
           modular arithmetic *)
        if not (S.is_zero coeff) then
          if S.is_one coeff then Some (Printf.sprintf "a += (uint64_t)%s;" src)
          else
            Some
              (Printf.sprintf "a += (uint64_t)%s * (uint64_t)%s;" (lit coeff)
                 src)
        else None
      end
      else if S.is_one coeff then
        (* 1.0 * v is exact in IEEE arithmetic, so the multiply may go;
           a tap still rounds its input to binary32, as the reference's
           product does *)
        Some (Printf.sprintf "a = a + %s;" (if tap then load_w src else src))
      else if tap && is_f32 then
        (* the product in binary64, rounded once: the reference's [S.mul]
           even for an input that is not itself a binary32 value *)
        Some
          (Printf.sprintf "a = a + (float)(%s * %s);" (lit64 coeff) src)
      else
        (* zero coefficients stay: 0.0 * inf and 0.0 * nan are not
           identities, and the reference computes them *)
        Some (Printf.sprintf "a = a + %s * %s;" (lit coeff) src)
    in
    Array.iteri
      (fun t c ->
        match term ~tap:true c (srcx t) with
        | None -> ()
        | Some body -> pf "      %s%s\n" (guard_tap t) body)
      forward;
    Array.iteri
      (fun j0 c ->
        let j = j0 + 1 in
        match term ~tap:false c (reg j) with
        | None -> ()
        | Some body -> pf "      %s%s\n" (guard_fb j) body)
      feedback

  let acc_decl =
    if is_int then "uint64_t a = 0;"
    else if is_f32 then "float a = 0.0f;"
    else "double a = 0.0;"

  (* The registers carry the accumulator itself.  For ints that is the
     raw mod-2^64 value: congruent mod 2^63 to the stored one, so the
     products built from it are too, and the renormalization stays off
     the loop-carried chain. *)
  let reg_type = if is_int then "uint64_t" else wtype

  (* How an element is stored from its register value [v]. *)
  let store = if is_int then "plr_norm(v)" else "v"

  (* Declare the k feedback registers, zeroed. *)
  let emit_regs b ~indent k =
    if k > 0 then
      Printf.bprintf b "%s%s %s;\n" indent reg_type
        (String.concat ", " (List.init k (fun j0 -> reg (j0 + 1) ^ " = 0")))

  (* End of an element: store it (through [st], given the value [v]) and
     rotate it into [f1]. *)
  let emit_commit b ~k ~st =
    let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    pf "      const %s v = a;\n" reg_type;
    pf "      y[i] = %s;\n" st;
    if k > 0 then begin
      pf "     ";
      for j = k downto 2 do
        pf " %s = %s;" (reg j) (reg (j - 1))
      done;
      pf " f1 = v;\n"
    end

  (* The add used by the correction sweeps: y[i] <- y[i] + rhs with the
     scalar's own rounding/normalization, mirroring
     [Factor_plan.apply_list_f] / [apply_list_int]. *)
  let sweep_add ~dst rhs =
    if is_int then
      Printf.sprintf "%s = plr_norm((uint64_t)%s + %s);" dst dst rhs
    else Printf.sprintf "%s = %s + %s;" dst (load_w dst) rhs

  let table_initializer stored =
    let b = Buffer.create 256 in
    Array.iteri
      (fun q v ->
        if q > 0 then Buffer.add_string b ", ";
        if q mod 6 = 0 && q > 0 then Buffer.add_string b "\n  ";
        Buffer.add_string b (lit v))
      stored;
    Buffer.contents b

  let mask_initializer ones nbits =
    let b = Buffer.create 64 in
    let nbytes = (nbits + 7) / 8 in
    for i = 0 to nbytes - 1 do
      let byte = ref 0 in
      for bit = 0 to 7 do
        let q = (i * 8) + bit in
        if q < nbits && Plr_factors.Factor_plan.mask_get ones q then
          byte := !byte lor (1 lsl bit)
      done;
      if i > 0 then Buffer.add_string b ", ";
      if i mod 12 = 0 && i > 0 then Buffer.add_string b "\n  ";
      Buffer.add_string b (Printf.sprintf "0x%02x" !byte)
    done;
    Buffer.contents b

  (* One static sweep function per factor list, specialized to its
     compiled class.  Bodies replicate the monomorphic OCaml sweeps
     operation for operation. *)
  let emit_sweep b (fplan : F.t) j =
    let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    let name = Printf.sprintf "plr_sweep_%d" j in
    let header () =
      pf "static void %s(%s* restrict y, int64_t base, int64_t len, %s carry) {\n"
        name ctype wtype
    in
    let table len stored =
      pf "static const %s plr_tab_%d[%d] = { %s };\n" wtype j len
        (table_initializer stored)
    in
    (* [p] = factor * carry, then the add — one loop line each *)
    let product ?(p = "p") factor =
      if is_int then
        Printf.sprintf "uint64_t %s = (uint64_t)%s * (uint64_t)carry;" p factor
      else Printf.sprintf "%s %s = %s * carry;" wtype p factor
    in
    let loop ?(bound = "len") body =
      pf "  for (int64_t q = 0; q < %s; q++) {\n" bound;
      List.iter (pf "    %s\n") body;
      pf "  }\n"
    in
    let add rhs = sweep_add ~dst:"y[base + q]" rhs in
    (match fplan.F.compiled.(j) with
    | F.All_equal f when S.is_zero f ->
        pf "/* factor list %d: all factors are 0 — the sweep is a no-op */\n" j;
        header ();
        pf "  (void)y; (void)base; (void)len; (void)carry;\n"
    | F.All_equal f when S.is_one f ->
        pf "/* factor list %d: all factors are 1 — carry adds straight in */\n" j;
        header ();
        loop [ add "carry" ]
    | F.All_equal f ->
        pf "/* factor list %d: all factors equal %s (folded to a constant) */\n"
          j (lit f);
        header ();
        (* loop-invariant product, hoisted exactly like apply_list_f *)
        pf "  %s\n" (product ~p:"fc" (lit f));
        loop [ add "fc" ]
    | F.Zero_one { ones; _ } ->
        pf "/* factor list %d: 0/1 factors — bitmask-predicated conditional add */\n" j;
        pf "static const uint8_t plr_ones_%d[] = { %s };\n" j
          (mask_initializer ones fplan.F.m);
        header ();
        loop
          [
            Printf.sprintf "if ((plr_ones_%d[q >> 3] >> (q & 7)) & 1) %s" j
              (add "carry");
          ]
    | F.Repeating { period; stored } ->
        pf "/* factor list %d: repeating with period %d — one stored period */\n"
          j period;
        table period stored;
        header ();
        loop
          [ product (Printf.sprintf "plr_tab_%d[q %% %d]" j period); add "p" ]
    | F.Decayed { cutoff; stored } ->
        pf "/* factor list %d: decays to exact zero at index %d — tail skipped */\n"
          j cutoff;
        if cutoff > 0 then table cutoff stored;
        header ();
        pf "  int64_t hi = len < %d ? len : %d;\n" cutoff cutoff;
        if cutoff = 0 then pf "  (void)y; (void)base; (void)carry; (void)hi;\n"
        else
          loop ~bound:"hi" [ product (Printf.sprintf "plr_tab_%d[q]" j); add "p" ]
    | F.Dense l ->
        pf "/* factor list %d: general — full static table */\n" j;
        table (Array.length l) l;
        header ();
        loop [ product (Printf.sprintf "plr_tab_%d[q]" j); add "p" ]);
    pf "}\n\n"

  let emit ~(fplan : F.t) (s : S.t Signature.t) =
    if not supported then
      invalid_arg "Cemit.emit: scalar has no native C representation";
    let k = Signature.order s in
    let taps = Signature.fir_taps s in
    if fplan.F.order <> k then
      invalid_arg "Cemit.emit: factor plan order does not match the signature";
    let b = Buffer.create (16 * 1024) in
    let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    pf "/* Generated by PLR — native JIT kernel.\n";
    pf " * signature: %s\n" (Signature.to_string S.to_string s);
    pf " * scalar: %s\n" scalar_comment;
    pf " * order k = %d, feed-forward taps = %d, factor table length m = %d\n"
      k taps fplan.F.m;
    for j = 0 to k - 1 do
      pf " * factor list %d: %s\n" j (F.describe fplan j)
    done;
    pf " * Compile with contraction and fast-math OFF: the contract is\n";
    pf " * bitwise identity with the OCaml serial reference. */\n\n";
    pf "#include <stdint.h>\n";
    if not is_int then begin
      pf "#include <float.h>\n\n";
      pf "/* Excess precision (x87) would round differently from the reference. */\n";
      pf "#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0\n";
      pf "#error \"PLR JIT float kernels need FLT_EVAL_METHOD == 0\"\n";
      pf "#endif\n"
    end;
    pf "\n";
    if is_int then begin
      pf "/* OCaml's native int is 63-bit two's complement; reducing a mod-2^64\n";
      pf "   accumulator at store time is congruent mod 2^63, so results match\n";
      pf "   the OCaml kernels bit for bit. */\n";
      pf "static inline int64_t plr_norm(uint64_t v) {\n";
      pf "  return (int64_t)(v << 1) >> 1;\n}\n"
    end
    else if is_f32 then
      pf "static inline float plr_from_bits32(uint32_t u) {\n\
         \  union { uint32_t u; float f; } v; v.u = u; return v.f;\n}\n"
    else
      pf "static inline double plr_from_bits(uint64_t u) {\n\
         \  union { uint64_t u; double d; } v; v.u = u; return v.d;\n}\n";
    pf "\n";
    (* ---- the dispatched serial-order kernel ---- *)
    let prologue = max (taps - 1) k in
    let serial_body ~srcx ~st =
      emit_regs b ~indent:"  " k;
      pf "  int64_t i = 0;\n";
      pf "  int64_t pro = n < %d ? n : %d;\n" prologue prologue;
      pf "  for (; i < pro; i++) {\n";
      pf "      %s\n" acc_decl;
      emit_terms b ~s ~srcx
        ~guard_tap:(fun t ->
          if t = 0 then "" else Printf.sprintf "if (i >= %d) " t)
        ~guard_fb:(fun j -> Printf.sprintf "if (i >= %d) " j);
      emit_commit b ~k ~st;
      pf "  }\n";
      pf "  for (; i < n; i++) {\n";
      pf "      %s\n" acc_decl;
      emit_terms b ~s ~srcx ~guard_tap:(fun _ -> "") ~guard_fb:(fun _ -> "");
      emit_commit b ~k ~st;
      pf "  }\n}\n\n"
    in
    pf "/* Serial-order fused kernel: identical operation sequence to the\n";
    pf "   OCaml serial reference, coefficients baked in, monomorphic over\n";
    pf "   restrict pointers, the last %d outputs carried in registers.\n" k;
    pf "   The first %d elements carry bounds guards; the steady-state\n" prologue;
    pf "   loop is guard-free. */\n";
    pf "void plr_jit_run(const %s* restrict x, %s* restrict y, int64_t n) {\n"
      ctype ctype;
    serial_body ~srcx:plain_srcx ~st:store;
    if is_int then begin
      (* The copy-free entry: OCaml int arrays are flat words holding
         2v+1.  Untagging on load is an arithmetic shift; retagging the
         mod-2^64 accumulator is (a << 1) | 1, which is congruent to
         tagging the renormalized 63-bit value, so the stored words are
         exactly the tagged form of the bitwise-exact results.  The
         registers hold the untagged accumulators. *)
      pf "/* Same kernel over OCaml's tagged int representation (word = 2v+1):\n";
      pf "   runs directly on an OCaml int array with no copy or boxing. */\n";
      pf "void plr_jit_run_tagged(const %s* restrict x, %s* restrict y, int64_t n) {\n"
        ctype ctype;
      serial_body
        ~srcx:(fun t -> Printf.sprintf "(x[i - %d] >> 1)" t)
        ~st:"(int64_t)((v << 1) | UINT64_C(1))"
    end;
    (* ---- specialized correction sweeps + the chunked algorithm ---- *)
    for j = 0 to k - 1 do
      emit_sweep b fplan j
    done;
    pf "/* The paper's two-phase chunked algorithm on one core: per-chunk\n";
    pf "   fused solve, then the specialized correction sweeps above applied\n";
    pf "   with the predecessor's inclusive carries.  Operation order matches\n";
    pf "   the sequential-fallback OCaml backend at the same chunk size. */\n";
    pf "void plr_jit_run_chunked(const %s* restrict x, %s* restrict y,\n\
       \                         int64_t n, int64_t m) {\n"
      ctype ctype;
    pf "  if (m < %d) m = %d;\n" (max 1 k) (max 1 k);
    pf "  if (m > %d) m = %d; /* factor tables cover one chunk of at most m */\n"
      (max 1 fplan.F.m) (max 1 fplan.F.m);
    pf "  int64_t chunks = (n + m - 1) / m;\n";
    pf "  %s g_prev[%d];\n" wtype (max 1 k);
    pf "  int have_prev = 0;\n";
    pf "  for (int64_t c = 0; c < chunks; c++) {\n";
    pf "    const int64_t base = c * m;\n";
    pf "    const int64_t len = (n - base) < m ? (n - base) : m;\n";
    emit_regs b ~indent:"    " k;
    pf "    for (int64_t i = base; i < base + len; i++) {\n";
    pf "      %s\n" acc_decl;
    emit_terms b ~s ~srcx:plain_srcx
      ~guard_tap:(fun t -> if t = 0 then "" else Printf.sprintf "if (i >= %d) " t)
      ~guard_fb:(fun j -> Printf.sprintf "if (i - base >= %d) " j);
    emit_commit b ~k ~st:store;
    pf "    }\n";
    if k > 0 then begin
      pf "    if (have_prev) {\n";
      for j = 0 to k - 1 do
        pf "      plr_sweep_%d(y, base, len, g_prev[%d]);\n" j j
      done;
      pf "    }\n";
      pf "    if (c < chunks - 1) {\n";
      pf "      for (int64_t j = 0; j < %d; j++)\n" k;
      pf "        g_prev[j] = (len - 1 - j >= 0) ? %s : 0;\n"
        (load_w "y[base + len - 1 - j]");
      pf "      have_prev = 1;\n";
      pf "    }\n"
    end
    else pf "    (void)g_prev; (void)have_prev;\n";
    pf "  }\n}\n";
    Buffer.contents b

  let emit_plan (plan : P.t) = emit ~fplan:plan.P.fplan plan.P.signature

  let specialization_summary ~(fplan : F.t) =
    List.init fplan.F.order (fun j ->
        Printf.sprintf "factor list %d: %s" j (F.describe fplan j))
end
