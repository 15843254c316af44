module Faults = Plr_gpusim.Faults
module Pool = Plr_exec.Pool
module Cancel = Plr_exec.Cancel
module Lookback = Plr_exec.Lookback
module Trace = Plr_trace.Trace
module Buf = Plr_util.Buf
module A1 = Bigarray.Array1

exception Fault_detected = Lookback.Fault_detected

module Opts = Plr_factors.Opts

let faulted_lookback_window = Lookback.faulted_lookback_window

let spans =
  {
    Lookback.cat = Trace.Multicore;
    chunk = "mc.chunk";
    publish = "mc.publish";
    lookback = "mc.lookback";
  }

(* Monomorphic fused chunk solve on unboxed float64 storage.  The FIR part
   reads the immutable input (including the tail of the previous chunk)
   and the feedback part reads only this chunk's own output, exactly like
   the generic [solve_chunk_fused] below.  The accumulator lives in the
   destination slot, so every operation is an unboxed bigarray load/store
   — no boxed float is allocated anywhere in the loop.  With [f32] set,
   every add and multiply is rounded to binary32 through the
   [Int32.bits_of_float] round-trip (both externals are
   [@@unboxed] [@@noalloc]), replicating the {!Plr_util.Scalar.F32}
   emulation operation for operation so results stay bitwise identical to
   the boxed kernels. *)
let solve_chunk_f ~f32 ~(forward : float array) ~(feedback : float array)
    (x : Buf.t) (y : Buf.t) ~base ~len =
  let taps = Array.length forward in
  let k = Array.length feedback in
  for i = base to base + len - 1 do
    A1.unsafe_set y i 0.0;
    let tmax = if i < taps - 1 then i else taps - 1 in
    for t = 0 to tmax do
      let p = Array.unsafe_get forward t *. A1.unsafe_get x (i - t) in
      let p = if f32 then Int32.float_of_bits (Int32.bits_of_float p) else p in
      let v = A1.unsafe_get y i +. p in
      A1.unsafe_set y i
        (if f32 then Int32.float_of_bits (Int32.bits_of_float v) else v)
    done;
    let d = i - base in
    let jmax = if d < k then d else k in
    for j = 1 to jmax do
      let p = Array.unsafe_get feedback (j - 1) *. A1.unsafe_get y (i - j) in
      let p = if f32 then Int32.float_of_bits (Int32.bits_of_float p) else p in
      let v = A1.unsafe_get y i +. p in
      A1.unsafe_set y i
        (if f32 then Int32.float_of_bits (Int32.bits_of_float v) else v)
    done
  done

(* Same fused solve monomorphized onto flat [int array] storage: int
   arrays are already unboxed, so the win over the generic kernel is the
   removal of the indirect [S.add]/[S.mul] calls (which box nothing but
   cost a call per operation). *)
let solve_chunk_i ~(forward : int array) ~(feedback : int array)
    (x : int array) (y : int array) ~base ~len =
  let taps = Array.length forward in
  let k = Array.length feedback in
  for i = base to base + len - 1 do
    let acc = ref 0 in
    let tmax = if i < taps - 1 then i else taps - 1 in
    for t = 0 to tmax do
      acc := !acc + (Array.unsafe_get forward t * Array.unsafe_get x (i - t))
    done;
    let d = i - base in
    let jmax = if d < k then d else k in
    for j = 1 to jmax do
      acc := !acc + (Array.unsafe_get feedback (j - 1) * Array.unsafe_get y (i - j))
    done;
    Array.unsafe_set y i !acc
  done

module Make (S : Plr_util.Scalar.S) = struct
  module Serial = Plr_serial.Serial.Make (S)
  module FP = Plr_factors.Factor_plan.Make (S)

  (* CPU chunks are orders of magnitude longer than a GPU block's, so the
     O(m·period) repetition search is bounded; 64 matches the longest 0/1
     period the code generator folds. *)
  let cpu_max_period = 64

  module Damage = Faults.Damage (S)

  (* The fused local pass: map stage (eq. 2) and local solve in one sweep.
     The FIR part reads the immutable input (including the tail of the
     previous chunk, so no serial whole-array pre-pass is needed) and the
     feedback part reads only this chunk's own output — together exactly
     [Serial.fir] followed by a per-chunk [recurrence_in_place], with the
     same operation order, so results are bit-identical to the reference
     decomposition. *)
  let solve_chunk_fused ~forward ~feedback x y ~base ~len =
    let taps = Array.length forward in
    let k = Array.length feedback in
    for i = base to base + len - 1 do
      let acc = ref S.zero in
      for t = 0 to min i (taps - 1) do
        acc := S.add !acc (S.mul forward.(t) x.(i - t))
      done;
      for j = 1 to min (i - base) k do
        acc := S.add !acc (S.mul feedback.(j - 1) y.(i - j))
      done;
      y.(i) <- !acc
    done

  (* Phase 2's look-back math on the CPU: promote the local (aggregate)
     carries of a chunk to global (inclusive) carries given the global
     carries of its predecessor.  Carry j is element m-1-j of the chunk,
     so the factors at position m-1-j correct it; every consumed
     predecessor is a full-length chunk (only the last chunk can be
     short, and nothing looks back at it). *)
  let combine fp ~k ~m ~local ~g_prev =
    Array.init k (fun j ->
        let q = m - 1 - j in
        let acc = ref local.(j) in
        for j' = 0 to k - 1 do
          acc := FP.correct fp ~j:j' ~q ~carry:g_prev.(j') ~acc:!acc
        done;
        !acc)

  (* A caller-supplied precompiled factor plan (the serve layer's plan
     cache) is reusable whenever it was compiled from the same feedback
     under the same [opts] with at least [m] factors per list: factor
     [F_j(q)] corrects output offset [q] regardless of the chunk length,
     and [combine]/[apply_list] never read past index [m - 1].  The
     feedback itself cannot be validated cheaply, so that part of the
     contract is the caller's (the cache keys on the signature); the
     checkable conditions are re-verified here and a mismatch silently
     recompiles instead of corrupting the output. *)
  let resolve_plan ?plan ~opts ~feedback ~m ~k () =
    match plan with
    | Some (fp : FP.t) when fp.FP.order = k && fp.FP.m >= m && fp.FP.opts = opts
      ->
        fp
    | _ -> FP.of_feedback ~opts ~max_period:cpu_max_period ~feedback ~m ()

  (* The chunk-level operations of one run, specialized to the storage the
     scalar representation admits: unboxed [Buf.t] for floats, flat
     [int array] for native ints, boxed [S.t array] otherwise.  Every
     schedule is written once against this record, so every storage
     backend runs the identical protocol — faulted runs included. *)
  type chunk_kernel = {
    ksolve : base:int -> len:int -> unit;
    ksweep : FP.t -> j:int -> carry:S.t -> base:int -> len:int -> unit;
    kcarry : base:int -> len:int -> j:int -> S.t;
    kpoison : base:int -> len:int -> unit;
        (* the Poison_chunk fault: [Damage.poison] over the chunk's first
           and last outputs *)
  }

  let generic_kernel ~forward ~feedback x y =
    {
      ksolve = (fun ~base ~len -> solve_chunk_fused ~forward ~feedback x y ~base ~len);
      ksweep = (fun fp ~j ~carry ~base ~len -> FP.apply_list fp ~j ~carry y ~base ~len);
      kcarry =
        (fun ~base ~len ~j ->
          if len - 1 - j >= 0 then y.(base + len - 1 - j) else S.zero);
      kpoison =
        (fun ~base ~len ->
          y.(base) <- Damage.poison;
          y.(base + len - 1) <- Damage.poison);
    }

  (* Sequential schedule of the same single-pass algorithm: chunks run in
     order, so each chunk is corrected immediately and its global carries
     are simply its last k corrected elements — no combine chain at all.
     One [g_prev] scratch array is reused across all chunks (the per-chunk
     carry allocation used to show up in the trace self-profile).  Used
     for one-domain pools and as the guard's fallback stage. *)
  let run_sequential_k ~cancel ~fp ~kernel ~n ~m ~k () =
    let chunks = (n + m - 1) / m in
    let g_prev = Array.make k S.zero in
    let have_prev = ref false in
    for c = 0 to chunks - 1 do
      Cancel.check cancel;
      let base = c * m in
      let len = min m (n - base) in
      Trace.begin_span2 Trace.Multicore "mc.chunk" c len;
      kernel.ksolve ~base ~len;
      if !have_prev then
        for j = 0 to k - 1 do
          kernel.ksweep fp ~j ~carry:g_prev.(j) ~base ~len
        done;
      if c < chunks - 1 then begin
        for j = 0 to k - 1 do
          g_prev.(j) <- kernel.kcarry ~base ~len ~j
        done;
        have_prev := true
      end;
      Trace.end_span ()
    done

  (* The recurrence carry for {!Lookback}: the chunk's last [k] outputs
     (lane j is element m-1-j), composed through [combine].  There is no
     carry before chunk 0, and no equality check: a corrupted carry shows
     up as divergence, which the guard layer turns into degradation. *)
  let carry_ops fp ~k ~m kernel : S.t array Lookback.ops =
    let carries ~base ~len =
      Array.init k (fun j -> kernel.kcarry ~base ~len ~j)
    in
    {
      Lookback.local =
        (fun ~base ~len ->
          kernel.ksolve ~base ~len;
          carries ~base ~len);
      finish =
        (fun ~base ~len g_prev ->
          Trace.begin_span2 Trace.Multicore "mc.correct" (base / m)
            (if k > 0 then FP.class_code fp 0 else -1);
          for j = 0 to k - 1 do
            kernel.ksweep fp ~j ~carry:g_prev.(j) ~base ~len
          done;
          Trace.end_span ());
      compose = (fun ~local ~prev -> combine fp ~k ~m ~local ~g_prev:prev);
      init = None;
      equal = (fun _ _ -> true);
      poison =
        (fun ~base ~len _ ->
          kernel.kpoison ~base ~len;
          carries ~base ~len);
      corrupt =
        (fun ~lane g ->
          (* An order-0 (FIR) carry has no lanes to corrupt. *)
          if k = 0 then g
          else begin
            let g = Array.copy g in
            let j = lane mod k in
            g.(j) <- Damage.corrupt g.(j);
            g
          end);
    }

  (* Storage-agnostic driver: resolve the factor plan once, then run the
     schedule the fault plan and pool size select.  An unfaulted
     [chunks = 1] run needs neither a plan nor the protocol — the fused
     solve is the whole answer. *)
  let run_kernel ?plan ?window ~faults ~cancel ~opts ~pool ~feedback ~n ~m ~k
      ~kernel () =
    let faulted = not (Faults.is_none faults) in
    if (n + m - 1) / m = 1 && not faulted then begin
      Cancel.check cancel;
      kernel.ksolve ~base:0 ~len:n
    end
    else begin
      let fp = resolve_plan ?plan ~opts ~feedback ~m ~k () in
      let ops = carry_ops fp ~k ~m kernel in
      if faulted then Lookback.run_faulted ~faults ops ~n ~m
      else if Pool.size pool = 1 then
        run_sequential_k ~cancel ~fp ~kernel ~n ~m ~k ()
      else Lookback.run ?window ~cancel ~pool spans ops ~n ~m
    end

  (* Unboxed float64 core: build the monomorphic kernel in a context where
     matching the representation witness has refined [S.t] to [float].
     Raises for non-float scalars (the public entry points dispatch). *)
  let run_float_core ?plan ?window ~faults ~cancel ~opts ~pool
      ~(forward : S.t array) ~(feedback : S.t array) ~n ~m ~k (x : Buf.t)
      (y : Buf.t) =
    match S.rep with
    | Plr_util.Scalar.Float_rep rounding ->
        let f32 = rounding = Plr_util.Scalar.Round_f32 in
        let kernel =
          {
            ksolve =
              (fun ~base ~len ->
                solve_chunk_f ~f32 ~forward ~feedback x y ~base ~len);
            ksweep =
              (fun fp ~j ~carry ~base ~len ->
                FP.apply_list_f fp ~j ~carry y ~base ~len);
            kcarry =
              (fun ~base ~len ~j ->
                if len - 1 - j >= 0 then A1.unsafe_get y (base + len - 1 - j)
                else S.zero);
            kpoison =
              (fun ~base ~len ->
                A1.set y base Damage.poison;
                A1.set y (base + len - 1) Damage.poison);
          }
        in
        run_kernel ?plan ?window ~faults ~cancel ~opts ~pool ~feedback ~n ~m
          ~k ~kernel ()
    | _ -> invalid_arg "Multicore.run_float_core: not a float scalar"

  let run_int_core ?plan ?window ~faults ~cancel ~opts ~pool
      ~(forward : S.t array) ~(feedback : S.t array) ~n ~m ~k (x : S.t array)
      (y : S.t array) =
    match S.rep with
    | Plr_util.Scalar.Int_rep ->
        let kernel =
          {
            ksolve =
              (fun ~base ~len -> solve_chunk_i ~forward ~feedback x y ~base ~len);
            ksweep =
              (fun fp ~j ~carry ~base ~len ->
                FP.apply_list_int fp ~j ~carry y ~base ~len);
            kcarry =
              (fun ~base ~len ~j ->
                if len - 1 - j >= 0 then Array.unsafe_get y (base + len - 1 - j)
                else S.zero);
            kpoison =
              (fun ~base ~len ->
                y.(base) <- Damage.poison;
                y.(base + len - 1) <- Damage.poison);
          }
        in
        run_kernel ?plan ?window ~faults ~cancel ~opts ~pool ~feedback ~n ~m
          ~k ~kernel ()
    | _ -> invalid_arg "Multicore.run_int_core: not an int scalar"

  let run_with ?(opts = Opts.all_on) ?(faults = Faults.none) ?plan
      ?(cancel = Cancel.none) ?window ~pool ~chunk_size (s : S.t Signature.t)
      (input : S.t array) =
    let n = Array.length input in
    if n = 0 then [||]
    else begin
      let k = Signature.order s in
      (* Chunks must hold at least k elements so carry positions exist. *)
      let m = max k (min chunk_size n) in
      let chunks = (n + m - 1) / m in
      let forward = s.Signature.forward and feedback = s.Signature.feedback in
      Trace.begin_span2 Trace.Multicore "mc.run" n chunks;
      let finish () = Trace.end_span () in
      (* Storage dispatch: floats convert to unboxed Buf storage at this
         API boundary only; native ints run in place on their (already
         flat) arrays; everything else takes the generic boxed kernels.
         All paths run the identical schedule and operation order, so
         outputs are bitwise identical. *)
      let dispatch () : S.t array =
        match S.rep with
        | Plr_util.Scalar.Float_rep _ ->
            let x = Buf.of_array input in
            let y = Buf.create n in
            run_float_core ?plan ?window ~faults ~cancel ~opts ~pool ~forward
              ~feedback ~n ~m ~k x y;
            Buf.to_array y
        | Plr_util.Scalar.Int_rep ->
            let y = Array.make n S.zero in
            run_int_core ?plan ?window ~faults ~cancel ~opts ~pool ~forward
              ~feedback ~n ~m ~k input y;
            y
        | Plr_util.Scalar.Other_rep ->
            let y = Array.make n S.zero in
            run_kernel ?plan ?window ~faults ~cancel ~opts ~pool ~feedback ~n
              ~m ~k ~kernel:(generic_kernel ~forward ~feedback input y) ();
            y
      in
      match dispatch () with
      | y ->
          finish ();
          y
      | exception e ->
          finish ();
          raise e
    end

  let resolve_pool ?pool ?domains () =
    match pool with Some p -> p | None -> Pool.get ?domains ()

  (* No explicit chunk size: shape the run to the supplied plan so its
     factor tables cover every chunk, else take the engine's default. *)
  let resolve_chunk_size ?chunk_size ?plan ~pool n =
    match (chunk_size, plan) with
    | Some c, _ -> max 1 c
    | None, Some (fp : FP.t) -> max 1 fp.FP.m
    | None, None -> Lookback.default_chunk_size ~domains:(Pool.size pool) n

  let run ?opts ?faults ?plan ?cancel ?pool ?domains ?chunk_size ?window s
      input =
    let pool = resolve_pool ?pool ?domains () in
    let chunk_size =
      resolve_chunk_size ?chunk_size ?plan ~pool (Array.length input)
    in
    run_with ?opts ?faults ?plan ?cancel ?window ~pool ~chunk_size s input

  (* Buf-in/Buf-out entry for float scalars: no boxed conversion at all.
     [dst] is caller-allocated (and reusable across calls — [Stream] keeps
     one), so a warmed-up run performs no per-element allocation. *)
  let run_into ?(opts = Opts.all_on) ?plan ?(cancel = Cancel.none) ?pool
      ?domains ?chunk_size ?window (s : S.t Signature.t) ~(src : Buf.t)
      ~(dst : Buf.t) =
    let n = Buf.length src in
    if Buf.length dst < n then invalid_arg "Multicore.run_into: dst too short";
    if n > 0 then begin
      let pool = resolve_pool ?pool ?domains () in
      let k = Signature.order s in
      let chunk_size = resolve_chunk_size ?chunk_size ?plan ~pool n in
      let m = max k (min chunk_size n) in
      let chunks = (n + m - 1) / m in
      let forward = s.Signature.forward and feedback = s.Signature.feedback in
      Trace.begin_span2 Trace.Multicore "mc.run" n chunks;
      match
        run_float_core ?plan ?window ~faults:Faults.none ~cancel ~opts ~pool
          ~forward ~feedback ~n ~m ~k src dst
      with
      | () -> Trace.end_span ()
      | exception e ->
          Trace.end_span ();
          raise e
    end

  let sequential_pool = lazy (Pool.get ~domains:1 ())

  let run_sequential_fallback ?opts ?chunk_size s input =
    let chunk_size =
      match chunk_size with
      | Some c -> max 1 c
      | None -> Lookback.fallback_chunk_size (Array.length input)
    in
    run_with ?opts ~pool:(Lazy.force sequential_pool) ~chunk_size s input
end
