module Faults = Plr_gpusim.Faults
module Pool = Plr_exec.Pool
module Cancel = Plr_exec.Cancel
module Lookback = Plr_exec.Lookback
module Trace = Plr_trace.Trace
module Buf = Plr_util.Buf
module A1 = Bigarray.Array1

exception Fault_detected = Lookback.Fault_detected

let spans =
  {
    Lookback.cat = Trace.Scan;
    chunk = "scan.chunk";
    publish = "scan.publish";
    lookback = "scan.lookback";
  }

(* Monomorphic phase-1 kernel on unboxed float64 storage: the chunk's
   composed affine operator (A, B) — A the ordered product of the a's, B
   the chain from zero, i.e. exactly the chunk's output if the incoming
   carry were zero.  With [f32] every operation is rounded to binary32
   through the [Int32.bits_of_float] round-trip (both externals are
   [@@unboxed] [@@noalloc]), replicating the {!Plr_util.Scalar.F32}
   emulation operation for operation.  The accumulators are float refs,
   which the compiler stores flat, so the loop allocates nothing. *)
let aggregate_f ~f32 (a : Buf.t) (b : Buf.t) ~base ~len =
  let p = ref 1.0 and y = ref 0.0 in
  for i = base to base + len - 1 do
    let ai = A1.unsafe_get a i in
    let pv = ai *. !p in
    p := (if f32 then Int32.float_of_bits (Int32.bits_of_float pv) else pv);
    let m = ai *. !y in
    let m = if f32 then Int32.float_of_bits (Int32.bits_of_float m) else m in
    let v = m +. A1.unsafe_get b i in
    y := (if f32 then Int32.float_of_bits (Int32.bits_of_float v) else v)
  done;
  (!p, !y)

(* Phase 2 on unboxed storage: recompute the chunk's outputs with the
   plain serial chain from the received carry, so the within-chunk
   operation order is exactly the serial reference's. *)
let chain_f ~f32 (a : Buf.t) (b : Buf.t) (y : Buf.t) ~base ~len ~y0 =
  let prev = ref y0 in
  for i = base to base + len - 1 do
    let m = A1.unsafe_get a i *. !prev in
    let m = if f32 then Int32.float_of_bits (Int32.bits_of_float m) else m in
    let v = m +. A1.unsafe_get b i in
    let v = if f32 then Int32.float_of_bits (Int32.bits_of_float v) else v in
    A1.unsafe_set y i v;
    prev := v
  done

(* [chain_f] on flat [float array] storage (OCaml float arrays are
   already unboxed), returning the final carry — the sparse path's dense
   segments run on the caller's arrays directly. *)
let chain_fa ~f32 (a : float array) (b : float array) (y : float array) ~base
    ~len ~y0 =
  let prev = ref y0 in
  for i = base to base + len - 1 do
    let m = Array.unsafe_get a i *. !prev in
    let m = if f32 then Int32.float_of_bits (Int32.bits_of_float m) else m in
    let v = m +. Array.unsafe_get b i in
    let v = if f32 then Int32.float_of_bits (Int32.bits_of_float v) else v in
    Array.unsafe_set y i v;
    prev := v
  done;
  !prev

(* The same two kernels monomorphized onto flat [int array] storage. *)
let aggregate_i (a : int array) (b : int array) ~base ~len =
  let p = ref 1 and y = ref 0 in
  for i = base to base + len - 1 do
    let ai = Array.unsafe_get a i in
    p := ai * !p;
    y := (ai * !y) + Array.unsafe_get b i
  done;
  (!p, !y)

let chain_i (a : int array) (b : int array) (y : int array) ~base ~len ~y0 =
  let prev = ref y0 in
  for i = base to base + len - 1 do
    let v = (Array.unsafe_get a i * !prev) + Array.unsafe_get b i in
    Array.unsafe_set y i v;
    prev := v
  done

module Make (S : Plr_util.Scalar.S) = struct
  module Damage = Faults.Damage (S)

  let check_lengths name (a : S.t array) (b : S.t array) =
    if Array.length a <> Array.length b then
      invalid_arg (name ^ ": coefficient streams differ in length")

  (* Bitwise equality refined by the representation witness, used by the
     run-length fixpoint fill and the carry verification.  [None] means
     the scalar offers no cheap bit view; both fast paths degrade to the
     plain chain / skip the check. *)
  let bitwise_equal : (S.t -> S.t -> bool) option =
    match S.rep with
    | Plr_util.Scalar.Int_rep -> Some (fun u v -> u = v)
    | Plr_util.Scalar.Float_rep _ ->
        Some (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v)
    | Plr_util.Scalar.Other_rep -> None

  let carry_eq = match bitwise_equal with Some eq -> eq | None -> fun _ _ -> true

  (* ------------------------------------------------- serial reference *)

  let serial_chain ?(y0 = S.zero) ~(a : S.t array) ~(b : S.t array)
      (y : S.t array) =
    let prev = ref y0 in
    for i = 0 to Array.length a - 1 do
      let v = S.add (S.mul a.(i) !prev) b.(i) in
      y.(i) <- v;
      prev := v
    done

  let check_dst name n (dst : S.t array) =
    if Array.length dst < n then invalid_arg (name ^ ": dst too short")

  let serial_into ?y0 a b ~dst =
    check_lengths "Scan.serial_into" a b;
    check_dst "Scan.serial_into" (Array.length a) dst;
    serial_chain ?y0 ~a ~b dst

  let serial ?y0 a b =
    check_lengths "Scan.serial" a b;
    let y = Array.make (Array.length a) S.zero in
    serial_chain ?y0 ~a ~b y;
    y

  (* ------------------------------------------- run-length sparse path *)

  module Runs = struct
    type seg =
      | Identity of { off : int; len : int }
      | Reset of { off : int; len : int }
      | Dense of { off : int; len : int }

    type t = { n : int; segs : seg array; identity_elems : int }

    (* Below this length the segment bookkeeping costs more than the
       skipped multiplies. *)
    let min_run = 8

    let classify (a : S.t array) (b : S.t array) j =
      if S.is_zero a.(j) then `Reset
      else if S.is_one a.(j) && S.is_zero b.(j) then `Identity
      else `Dense

    let build (a : S.t array) (b : S.t array) =
      if Array.length a <> Array.length b then
        invalid_arg "Scan.Runs.build: coefficient streams differ in length";
      let n = Array.length a in
      let segs = ref [] and identity_elems = ref 0 in
      let flush_dense off stop =
        if stop > off then segs := Dense { off; len = stop - off } :: !segs
      in
      let dstart = ref 0 in
      let i = ref 0 in
      while !i < n do
        match classify a b !i with
        | `Dense -> incr i
        | (`Identity | `Reset) as c ->
            let j = ref !i in
            while !j < n && classify a b !j = c do incr j done;
            let len = !j - !i in
            if len >= min_run then begin
              flush_dense !dstart !i;
              (segs :=
                 (if c = `Identity then begin
                    identity_elems := !identity_elems + len;
                    Identity { off = !i; len }
                  end
                  else Reset { off = !i; len })
                 :: !segs);
              dstart := !j
            end;
            i := !j
      done;
      flush_dense !dstart n;
      { n; segs = Array.of_list (List.rev !segs); identity_elems = !identity_elems }

    let length t = t.n
    let segments t = Array.length t.segs

    let identity_fraction t =
      if t.n = 0 then 0.0 else float_of_int t.identity_elems /. float_of_int t.n
  end

  let sparse_into ?(y0 = S.zero) ?runs a b ~dst =
    check_lengths "Scan.sparse" a b;
    let n = Array.length a in
    check_dst "Scan.sparse_into" n dst;
    let y = dst in
    if n > 0 then begin
      let runs =
        match runs with
        | Some r when r.Runs.n = n -> r
        | Some r ->
            invalid_arg
              (Printf.sprintf
                 "Scan.sparse: runs plan is for length %d, streams have %d"
                 r.Runs.n n)
        | None -> Runs.build a b
      in
      Trace.instant Trace.Scan "scan.sparse" n (Runs.segments runs);
      (* Segment execution specializes on the representation witness the
         same way the chunked engine dispatches its kernels: the arrays
         refine to flat int/float storage, dense segments run the
         monomorphic chains, and skipped runs are plain blits/fills — the
         per-element functor-closure cost would otherwise eat the O(1)
         win the run-length plan buys. *)
      let exec () : unit =
        match S.rep with
        | Plr_util.Scalar.Int_rep ->
            let prev = ref y0 in
            Array.iter
              (function
                | Runs.Dense { off; len } ->
                    chain_i a b y ~base:off ~len ~y0:!prev;
                    prev := y.(off + len - 1)
                | Runs.Reset { off; len } ->
                    (* 0*y + b = b exactly in the wrap-around ring. *)
                    Array.blit b off y off len;
                    prev := y.(off + len - 1)
                | Runs.Identity { off; len } ->
                    (* 1*y + 0 = y exactly: the whole run is a fill. *)
                    Array.fill y off len !prev)
              runs.Runs.segs
        | Plr_util.Scalar.Float_rep r ->
            let f32 = r = Plr_util.Scalar.Round_f32 in
            let prev = ref y0 in
            Array.iter
              (function
                | Runs.Dense { off; len } | Runs.Reset { off; len } ->
                    (* Float resets stay on the real operations: 0*y
                       depends on the sign and finiteness of y. *)
                    prev := chain_fa ~f32 a b y ~base:off ~len ~y0:!prev
                | Runs.Identity { off; len } ->
                    (* Fixpoint fill: the identity step f(v) = 1*v + (+-0)
                       satisfies f(f(v)) = f(v), so after at most two real
                       steps the output repeats bitwise and the rest of the
                       run is a fill (this is what keeps b = +0.0 against a
                       -0.0 state, and every rounding mode, bitwise equal
                       to the serial chain). *)
                    let stop = off + len in
                    let i = ref off in
                    let fixed = ref false in
                    while (not !fixed) && !i < stop do
                      let m = a.(!i) *. !prev in
                      let m =
                        if f32 then
                          Int32.float_of_bits (Int32.bits_of_float m)
                        else m
                      in
                      let v = m +. b.(!i) in
                      let v =
                        if f32 then
                          Int32.float_of_bits (Int32.bits_of_float v)
                        else v
                      in
                      y.(!i) <- v;
                      fixed :=
                        Int64.bits_of_float v = Int64.bits_of_float !prev;
                      prev := v;
                      incr i
                    done;
                    if !i < stop then Array.fill y !i (stop - !i) !prev)
              runs.Runs.segs
        | Plr_util.Scalar.Other_rep ->
            (* No cheap bit view, so no fill is provably bitwise: the
               plan degrades to the plain chain (segment order is the
               element order, so this is exactly the serial chain). *)
            serial_chain ~y0 ~a ~b y
      in
      exec ()
    end

  let sparse ?y0 ?runs a b =
    check_lengths "Scan.sparse" a b;
    let y = Array.make (Array.length a) S.zero in
    sparse_into ?y0 ?runs a b ~dst:y;
    y

  (* -------------------------------------------- two-phase chunked run *)

  (* The chunk-level operations of one run, specialized to the storage
     the scalar representation admits; [carry_ops] turns them into the
     look-back engine's carry instance. *)
  type kernel = {
    kaggregate : base:int -> len:int -> S.t * S.t;
    kchain : base:int -> len:int -> y0:S.t -> unit;
  }

  let generic_kernel ~(a : S.t array) ~(b : S.t array) (y : S.t array) =
    {
      kaggregate =
        (fun ~base ~len ->
          let p = ref S.one and acc = ref S.zero in
          for i = base to base + len - 1 do
            p := S.mul a.(i) !p;
            acc := S.add (S.mul a.(i) !acc) b.(i)
          done;
          (!p, !acc));
      kchain =
        (fun ~base ~len ~y0 ->
          let prev = ref y0 in
          for i = base to base + len - 1 do
            let v = S.add (S.mul a.(i) !prev) b.(i) in
            y.(i) <- v;
            prev := v
          done);
    }

  (* The scan carry for {!Lookback}: an operator pair — the chunk's
     aggregate (A, B) locally, (a_prod, y_incl) inclusively — composed in
     ascending chunk order from (1, y0).  Phase 2 recomputes the chunk's
     outputs with the serial chain from the received carry, and the
     before-commit check compares carries bitwise. *)
  let carry_ops ~y0 kernel : (S.t * S.t) Lookback.ops =
    {
      Lookback.local = kernel.kaggregate;
      finish = (fun ~base ~len (_, y) -> kernel.kchain ~base ~len ~y0:y);
      compose =
        (fun ~local:(a, b) ~prev:(p, y) -> (S.mul a p, S.add (S.mul a y) b));
      init = Some (S.one, y0);
      equal = (fun (p, y) (p', y') -> carry_eq p p' && carry_eq y y');
      poison = (fun ~base:_ ~len:_ (a, _) -> (a, Damage.poison));
      corrupt =
        (fun ~lane (p, y) ->
          if lane land 1 = 0 then (Damage.corrupt p, y)
          else (p, Damage.corrupt y));
    }

  let run_kernel ?window ~cancel ~pool ~kernel ~n ~m ~y0 () =
    Lookback.run ?window ~cancel ~pool spans (carry_ops ~y0 kernel) ~n ~m

  (* Unboxed float64 core: build the monomorphic kernel in a context
     where matching the representation witness has refined [S.t] to
     [float].  Raises for non-float scalars (the entry points dispatch). *)
  let run_float_core ?window ~cancel ~pool ~n ~m ~y0 (a : Buf.t) (b : Buf.t)
      (y : Buf.t) =
    match S.rep with
    | Plr_util.Scalar.Float_rep rounding ->
        let f32 = rounding = Plr_util.Scalar.Round_f32 in
        let kernel =
          {
            kaggregate = (fun ~base ~len -> aggregate_f ~f32 a b ~base ~len);
            kchain = (fun ~base ~len ~y0 -> chain_f ~f32 a b y ~base ~len ~y0);
          }
        in
        run_kernel ?window ~cancel ~pool ~kernel ~n ~m ~y0 ()
    | _ -> invalid_arg "Scan.run_float_core: not a float scalar"

  let run_int_core ?window ~cancel ~pool ~n ~m ~y0 (a : S.t array)
      (b : S.t array) (y : S.t array) =
    match S.rep with
    | Plr_util.Scalar.Int_rep ->
        let kernel =
          {
            kaggregate = (fun ~base ~len -> aggregate_i a b ~base ~len);
            kchain = (fun ~base ~len ~y0 -> chain_i a b y ~base ~len ~y0);
          }
        in
        run_kernel ?window ~cancel ~pool ~kernel ~n ~m ~y0 ()
    | _ -> invalid_arg "Scan.run_int_core: not an int scalar"

  (* The deterministic faulted scheduler over the boxed kernels.  A
     poisoned chunk publishes a poisoned fold, and its damage must survive
     its own phase-2 recompute, so its outputs are poisoned again after
     the chain. *)
  let run_faulted ~faults ~(a : S.t array) ~(b : S.t array) ~y0
      (y : S.t array) ~n ~m =
    let ops = carry_ops ~y0 (generic_kernel ~a ~b y) in
    let poisoned = Array.make ((n + m - 1) / m) false in
    Lookback.run_faulted ~faults ~n ~m
      {
        ops with
        poison =
          (fun ~base ~len c ->
            poisoned.(base / m) <- true;
            ops.poison ~base ~len c);
        finish =
          (fun ~base ~len c ->
            ops.finish ~base ~len c;
            if poisoned.(base / m) then begin
              y.(base) <- Damage.poison;
              y.(base + len - 1) <- Damage.poison
            end);
      }

  (* ---------------------------------------------------- entry points *)

  let resolve_pool ?pool ?domains () =
    match pool with Some p -> p | None -> Pool.get ?domains ()

  (* Chunk length of an [n]-element run: [chunk_size] when given, else
     [default]. *)
  let chunk_len ?chunk_size ~default n =
    min (match chunk_size with Some c -> max 1 c | None -> default) n

  (* One engine run inside its "scan.run" span. *)
  let traced_run ~n ~m f =
    Trace.begin_span2 Trace.Scan "scan.run" n ((n + m - 1) / m);
    Fun.protect ~finally:Trace.end_span f

  (* One pooled run of [n > 0] elements: the pool, the chunk length and
     the span shared by every storage representation. *)
  let pooled_run ?pool ?domains ?chunk_size ~n f =
    let pool = resolve_pool ?pool ?domains () in
    let m =
      chunk_len ?chunk_size
        ~default:(Lookback.default_chunk_size ~domains:(Pool.size pool) n)
        n
    in
    traced_run ~n ~m (fun () -> f ~pool ~m)

  (* Buf-in/Buf-out entry for float scalars: no boxed conversion at all,
     and [dst] is caller-allocated (reusable across calls), so a
     warmed-up run performs no per-element allocation. *)
  let run_into ?(cancel = Cancel.none) ?pool ?domains ?chunk_size ?window
      ?(y0 = S.zero) (a : Buf.t) (b : Buf.t) ~(dst : Buf.t) =
    let n = Buf.length a in
    if Buf.length b <> n then
      invalid_arg "Scan.run_into: coefficient streams differ in length";
    if Buf.length dst < n then invalid_arg "Scan.run_into: dst too short";
    if n > 0 then
      pooled_run ?pool ?domains ?chunk_size ~n (fun ~pool ~m ->
          run_float_core ?window ~cancel ~pool ~n ~m ~y0 a b dst)

  let run ?(faults = Faults.none) ?(cancel = Cancel.none) ?pool ?domains
      ?chunk_size ?window ?(y0 = S.zero) a b : S.t array =
    check_lengths "Scan.run" a b;
    let n = Array.length a in
    if n = 0 then [||]
    else if not (Faults.is_none faults) then begin
      (* Chaos replay stays on the boxed reference kernels, sequentially,
         and needs no pool. *)
      let m =
        chunk_len ?chunk_size ~default:(Lookback.fallback_chunk_size n) n
      in
      let y = Array.make n S.zero in
      traced_run ~n ~m (fun () -> run_faulted ~faults ~a ~b ~y0 y ~n ~m);
      y
    end
    else
      (* Storage dispatch: floats convert to unboxed Buf storage at this
         API boundary only and run through [run_into]; native ints run in
         place on their (already flat) arrays; everything else takes the
         generic boxed kernels.  All paths run the identical schedule and
         operation order, so outputs are bitwise identical. *)
      match S.rep with
      | Plr_util.Scalar.Float_rep _ ->
          let dst = Buf.create n in
          run_into ~cancel ?pool ?domains ?chunk_size ?window ~y0
            (Buf.of_array a) (Buf.of_array b) ~dst;
          Buf.to_array dst
      | Plr_util.Scalar.Int_rep ->
          pooled_run ?pool ?domains ?chunk_size ~n (fun ~pool ~m ->
              let y = Array.make n S.zero in
              run_int_core ?window ~cancel ~pool ~n ~m ~y0 a b y;
              y)
      | Plr_util.Scalar.Other_rep ->
          pooled_run ?pool ?domains ?chunk_size ~n (fun ~pool ~m ->
              let y = Array.make n S.zero in
              run_kernel ?window ~cancel ~pool ~kernel:(generic_kernel ~a ~b y)
                ~n ~m ~y0 ();
              y)

  (* -------------------------------------------------------- streaming *)

  module Stream = struct
    module Recovery = Plr_exec.Recovery

    type fault = Recovery.fault = Crash | Corrupt_state | Engine_fault of int

    let fault_to_string = Recovery.fault_to_string

    type segment =
      | Data of S.t array * S.t array
      | Gap of int
      | Ff of S.t * S.t * int

    type stats = {
      position : int;
      checkpoints : int;
      recoveries : int;
      fastforwards : int;
      detected : int;
      replayed : int;
    }

    (* What recovery reads and writes: the carry and the position. *)
    type live = {
      pool : Pool.t;
      mutable y : S.t;
      mutable pos : int;
      mutable n_fastforwards : int;
    }

    (* Snapshots are (carry, position). *)
    type t = { live : live; log : (S.t * int, segment, S.t array) Recovery.t }

    let default_checkpoint_every = 1024

    let state_digest ~pos ~y = Recovery.digest ~pos [ [| y |] ]

    (* A gap or a fast-forward: the carry pair *is* the fast-forward
       operator, so [steps] inputs cost one compose (none for a gap of
       identity steps, whose operator leaves the carry alone). *)
    let advance l ~steps f =
      if steps > 0 then begin
        Trace.begin_span2 Trace.Scan "scan.session.ff" l.pos steps;
        l.y <- f l.y;
        l.pos <- l.pos + steps;
        l.n_fastforwards <- l.n_fastforwards + 1;
        Trace.end_span ()
      end

    let apply l = function
      | Data (a, b) ->
          let n = Array.length a in
          if n = 0 then [||]
          else begin
            (* The serial chain from the exact carry: bitwise identical
               to the serial reference over the concatenated stream. *)
            let y = Array.make n S.zero in
            serial_chain ~y0:l.y ~a ~b y;
            l.y <- y.(n - 1);
            l.pos <- l.pos + n;
            y
          end
      | Gap n ->
          advance l ~steps:n Fun.id;
          [||]
      | Ff (a_prod, b_fold, steps) ->
          advance l ~steps (fun y -> S.add (S.mul a_prod y) b_fold);
          [||]

    let ops ~tol l : (S.t * int, segment, S.t array) Recovery.ops =
      {
        position = (fun () -> l.pos);
        digest = (fun () -> state_digest ~pos:l.pos ~y:l.y);
        snapshot = (fun () -> (l.y, l.pos));
        restore =
          (fun (y, pos) ->
            l.y <- y;
            l.pos <- pos);
        apply = apply l;
        faulted =
          (fun ~seed -> function
            | Data (a, b) ->
                let faults =
                  Recovery.fault_plan ~seed ~n:(Array.length a) ~k:1 ~lanes:2
                in
                run ~faults ~pool:l.pool ~chunk_size:Recovery.faulted_chunk
                  ~y0:l.y a b
            | Gap _ | Ff _ -> [||]);
        agree =
          (fun faulted clean ->
            Array.for_all2 (fun f c -> S.approx_equal ~tol c f) faulted clean);
        data_length =
          (function Data (a, _) -> Array.length a | Gap _ | Ff _ -> 0);
        crash =
          (fun () ->
            l.y <- Damage.poison;
            (* a lost position is part of losing memory *)
            l.pos <- l.pos + 1);
        corrupt = (fun () -> l.y <- Damage.corrupt l.y);
        note = ignore;
      }

    let spans =
      {
        Recovery.cat = Trace.Scan;
        checkpoint = "scan.session.checkpoint";
        recover = "scan.session.recover";
      }

    let create ?pool ?domains ?(checkpoint_every = default_checkpoint_every)
        ?(tol = 1e-3) ?(y0 = S.zero) () =
      let pool = match pool with Some p -> p | None -> Pool.get ?domains () in
      let live = { pool; y = y0; pos = 0; n_fastforwards = 0 } in
      { live; log = Recovery.create ~checkpoint_every spans (ops ~tol live) }

    let position t = t.live.pos
    let value t = t.live.y

    let stats t =
      let r = Recovery.stats t.log in
      {
        position = t.live.pos;
        checkpoints = r.Recovery.checkpoints;
        recoveries = r.Recovery.recoveries;
        fastforwards = t.live.n_fastforwards;
        detected = r.Recovery.detected;
        replayed = r.Recovery.replayed;
      }

    let process ?fault t a b =
      check_lengths "Scan.Stream.process" a b;
      Recovery.step ?fault t.log (Data (Array.copy a, Array.copy b))

    let skip ?fault t n =
      if n < 0 then invalid_arg "Scan.Stream.skip: negative gap";
      ignore (Recovery.step ?fault t.log (Gap n) : S.t array)

    let fast_forward ?fault t ~a_prod ~b_fold ~steps =
      if steps < 0 then invalid_arg "Scan.Stream.fast_forward: negative steps";
      ignore
        (Recovery.step ?fault t.log (Ff (a_prod, b_fold, steps)) : S.t array)

    let checkpoint_now t = Recovery.checkpoint_now t.log
  end
end
