module Buf = Plr_util.Buf
module A1 = Bigarray.Array1

module Make (S : Plr_util.Scalar.S) = struct
  module Multicore = Multicore.Make (S)
  module FP = Plr_factors.Factor_plan.Make (S)
  module Pool = Plr_exec.Pool
  module Lookback = Plr_exec.Lookback
  module Faults = Plr_gpusim.Faults

  type t = {
    signature : S.t Signature.t;
    pure : S.t Signature.t;          (* (1 : feedback) for the local solves *)
    k : int;
    taps : int;
    pool : Pool.t;
    opts : Plr_factors.Opts.t;
    carries : S.t array;             (* carry j = j-th from last output *)
    input_tail : S.t array;          (* last taps-1 inputs, most recent last *)
    mutable fplan : FP.t option;     (* compiled factor plan, grown on demand *)
    mutable started : bool;
    (* Unboxed scratch for the float path, grown geometrically and reused
       across [process] calls: FIR output (the multicore solve's input)
       and the corrected chunk output.  Length 0 for non-float scalars. *)
    mutable fbuf_in : Buf.t;
    mutable fbuf_out : Buf.t;
  }

  let create ?pool ?domains ?(opts = Plr_factors.Opts.all_on)
      (signature : S.t Signature.t) =
    let k = Signature.order signature in
    let _, pure = Signature.split ~one:S.one signature in
    let pool =
      match pool with Some p -> p | None -> Pool.get ?domains ()
    in
    {
      signature;
      pure;
      k;
      taps = Signature.fir_taps signature;
      pool;
      opts;
      carries = Array.make k S.zero;
      input_tail = Array.make (max 0 (Signature.fir_taps signature - 1)) S.zero;
      fplan = None;
      started = false;
      fbuf_in = Buf.create 0;
      fbuf_out = Buf.create 0;
    }

  let signature t = t.signature

  let reset t =
    Array.fill t.carries 0 t.k S.zero;
    Array.fill t.input_tail 0 (Array.length t.input_tail) S.zero;
    t.started <- false

  let ensure_plan t len =
    let have = match t.fplan with None -> 0 | Some fp -> fp.FP.m in
    if len > have then
      t.fplan <-
        Some
          (FP.of_feedback ~opts:t.opts ~max_period:64
             ~feedback:t.signature.Signature.feedback
             ~m:(max len (2 * max 1 have)) ())

  let ensure_fbufs t n =
    if Buf.length t.fbuf_in < n then begin
      let cap = max n (2 * max 1 (Buf.length t.fbuf_in)) in
      t.fbuf_in <- Buf.create cap;
      t.fbuf_out <- Buf.create cap
    end

  (* FIR with the saved input history standing in for x(i < 0 of this
     chunk). *)
  let fir_with_history t x =
    let fwd = t.signature.Signature.forward in
    let taps = t.taps in
    if taps = 1 && S.is_one fwd.(0) then Array.copy x
    else begin
      let hist = t.input_tail in
      let nh = Array.length hist in
      Array.init (Array.length x) (fun i ->
          let acc = ref S.zero in
          for j = 0 to taps - 1 do
            if not (S.is_zero fwd.(j)) then begin
              let v =
                if i - j >= 0 then x.(i - j)
                else begin
                  let h = nh + (i - j) in
                  if h >= 0 then hist.(h) else S.zero
                end
              in
              acc := S.add !acc (S.mul fwd.(j) v)
            end
          done;
          !acc)
    end

  (* Below this length the boundary sweep is cheaper than waking the
     pool. *)
  let parallel_sweep_threshold = 8192

  let sweep_parts t n =
    if n < parallel_sweep_threshold then 1
    else min (Pool.size t.pool) (n / (parallel_sweep_threshold / 2))

  (* The boundary-correction sweep: one specialized whole-list sweep per
     factor list.  Factor positions are absolute chunk positions, so a
     range split passes its offset as [q0]; each range sums the lists in
     the same order, keeping the output bit-identical to the serial
     sweep. *)
  let correct_boundary t ~n apply_list =
    let lists ~base ~len =
      for j = 0 to t.k - 1 do
        apply_list ~q0:base ~j ~carry:t.carries.(j) ~base ~len
      done
    in
    let parts = sweep_parts t n in
    if parts <= 1 then lists ~base:0 ~len:n
    else begin
      let per = (n + parts - 1) / parts in
      Pool.run t.pool ~tasks:parts (fun p ->
          let lo = p * per in
          let len = min per (n - lo) in
          if len > 0 then lists ~base:lo ~len)
    end

  (* Save the new carry/input-tail state in place (no per-call
     reallocation).  Carries walk downward because slot j may read old
     slot j-n (a smaller index, still unwritten on the way down); the
     input tail walks upward because slot h may read old slot h+n. *)
  let save_carries_with t ~n read_out =
    for j = t.k - 1 downto 0 do
      t.carries.(j) <-
        (if n - 1 - j >= 0 then read_out (n - 1 - j) else t.carries.(j - n))
    done

  let save_input_tail t x ~n =
    let tail = t.input_tail in
    let nh = Array.length tail in
    for h = 0 to nh - 1 do
      let back = nh - 1 - h in
      tail.(h) <-
        (if n - 1 - back >= 0 then x.(n - 1 - back)
         else tail.(nh - 1 - (back - n)))
    done

  (* Correct the locally solved chunk against the carries from everything
     processed so far (there are none before the first chunk), then save
     the new state.  [ensure_plan] has installed a plan. *)
  let correct_and_save t x ~n apply_list read_out =
    (match t.fplan with
    | Some fp when t.started -> correct_boundary t ~n (apply_list fp)
    | _ -> ());
    save_carries_with t ~n read_out;
    save_input_tail t x ~n;
    t.started <- true

  (* Unboxed float path: FIR into the reused [fbuf_in] scratch, solve into
     [fbuf_out] through [Multicore.run_into] (no boxed conversion), sweep
     the boundary correction directly on the output buffer.  Only the
     returned chunk is a fresh boxed array — the caller owns it. *)
  let process_f t (x : S.t array) ~n ~chunk_size : S.t array =
    match S.rep with
    | Plr_util.Scalar.Float_rep rounding ->
        let f32 = rounding = Plr_util.Scalar.Round_f32 in
        ensure_fbufs t n;
        let src = Buf.sub t.fbuf_in ~pos:0 ~len:n in
        let dst = Buf.sub t.fbuf_out ~pos:0 ~len:n in
        let fwd = t.signature.Signature.forward in
        let taps = t.taps in
        if taps = 1 && fwd.(0) = 1.0 then Buf.blit_from_array x src
        else begin
          let hist = t.input_tail in
          let nh = Array.length hist in
          for i = 0 to n - 1 do
            A1.unsafe_set src i 0.0;
            for j = 0 to taps - 1 do
              let f = Array.unsafe_get fwd j in
              if f <> 0.0 then begin
                let v =
                  if i - j >= 0 then Array.unsafe_get x (i - j)
                  else begin
                    let h = nh + (i - j) in
                    if h >= 0 then Array.unsafe_get hist h else 0.0
                  end
                in
                let p = f *. v in
                let p =
                  if f32 then Int32.float_of_bits (Int32.bits_of_float p)
                  else p
                in
                let acc = A1.unsafe_get src i +. p in
                A1.unsafe_set src i
                  (if f32 then Int32.float_of_bits (Int32.bits_of_float acc)
                   else acc)
              end
            done
          done
        end;
        Multicore.run_into ~opts:t.opts ?plan:t.fplan ~pool:t.pool ~chunk_size
          t.pure ~src ~dst;
        correct_and_save t x ~n
          (fun fp ~q0 ~j ~carry -> FP.apply_list_f ~q0 fp ~j ~carry dst)
          (fun i -> A1.unsafe_get dst i);
        Buf.to_array dst
    | _ -> invalid_arg "Stream.process_f: not a float scalar"

  (* The local solves share the grown factor plan with the boundary
     sweep. *)
  let process ?(faults = Faults.none) t x =
    let n = Array.length x in
    if n = 0 then [||]
    else begin
      ensure_plan t n;
      let faulted = not (Faults.is_none faults) in
      let chunk_size =
        if faulted then Plr_exec.Recovery.faulted_chunk
        else Lookback.default_chunk_size ~domains:(Pool.size t.pool) n
      in
      match S.rep with
      | Plr_util.Scalar.Float_rep _ when not faulted ->
          process_f t x ~n ~chunk_size
      | _ ->
          let y =
            Multicore.run ~opts:t.opts ~faults ?plan:t.fplan ~pool:t.pool
              ~chunk_size t.pure (fir_with_history t x)
          in
          correct_and_save t x ~n
            (fun fp ~q0 ~j ~carry -> FP.apply_list ~q0 fp ~j ~carry y)
            (fun i -> y.(i));
          y
    end

  (* Declared last so that unannotated field accesses above resolve to
     [t]. *)
  type state = {
    carries : S.t array;
    input_tail : S.t array;
    started : bool;
  }

  let state (t : t) =
    {
      carries = Array.copy t.carries;
      input_tail = Array.copy t.input_tail;
      started = t.started;
    }

  let restore (t : t) (st : state) =
    Array.blit st.carries 0 t.carries 0 t.k;
    Array.blit st.input_tail 0 t.input_tail 0 (Array.length t.input_tail);
    t.started <- st.started
end
