module Pool = Plr_exec.Pool
module Trace = Plr_trace.Trace
module Faults = Plr_gpusim.Faults

type fault =
  | Crash
  | Corrupt_state
  | Engine_fault of int (* seed of the injected engine fault plan *)

let fault_to_string = function
  | Crash -> "crash"
  | Corrupt_state -> "corrupt-state"
  | Engine_fault seed -> Printf.sprintf "engine-fault(seed %d)" seed

module Make (S : Plr_util.Scalar.S) = struct
  module Multicore = Plr_multicore.Multicore.Make (S)
  module FP = Plr_factors.Factor_plan.Make (S)
  module Serial = Plr_serial.Serial.Make (S)
  module Companion = Plr_robust.Companion.Make (S)
  module Checkpoint = Companion.Checkpoint

  type segment = Data of S.t array | Gap of int

  type stats = {
    position : int;
    checkpoints : int;
    recoveries : int;
    fastforwards : int;
    detected : int;
    replayed : int;
    migrations : int;
  }

  type t = {
    signature : S.t Signature.t;
    pure : S.t Signature.t; (* (1 : feedback), for the local solves *)
    k : int;
    taps : int;
    mutable pool : Pool.t; (* reassigned only by [migrate] *)
    opts : Plr_factors.Opts.t;
    metrics : Metrics.t option;
    checkpoint_every : int;
    tol : float;
    comp : Companion.t;
    mutable carries : S.t array; (* carry j = j-th from last output *)
    mutable input_tail : S.t array; (* last taps-1 inputs, most recent last *)
    mutable fplan : FP.t option;
    mutable pos : int;
    mutable digest : int; (* of the live state; a mismatch = corruption *)
    mutable checkpoint : Checkpoint.t; (* last good snapshot *)
    mutable journal : segment list; (* since the checkpoint, newest first *)
    mutable armed : fault option;
    mutable n_checkpoints : int;
    mutable n_recoveries : int;
    mutable n_fastforwards : int;
    mutable n_detected : int;
    mutable n_replayed : int;
    mutable n_migrations : int;
  }

  (* Engine-fault injections run with this fixed chunk size (the chaos
     harness's choice) so small session chunks still span several chunks
     of the look-back protocol. *)
  let faulted_chunk = 16

  let default_checkpoint_every = 1024

  let poison = S.of_int 0x5EED_BAD
  let corrupt v = S.add (S.mul v (S.of_int 3)) (S.of_int 41)

  let live_digest t =
    (Checkpoint.make t.comp ~pos:t.pos ~carries:t.carries
       ~input_tail:t.input_tail)
      .Checkpoint.digest

  let create ?pool ?domains ?(opts = Plr_factors.Opts.all_on) ?metrics
      ?(checkpoint_every = default_checkpoint_every) ?(tol = 1e-3)
      (signature : S.t Signature.t) =
    let k = Signature.order signature in
    let taps = Signature.fir_taps signature in
    let _, pure = Signature.split ~one:S.one signature in
    let pool = match pool with Some p -> p | None -> Pool.get ?domains () in
    (* Compiled from the full signature (not [pure]) so the checkpoint
       layer knows the real FIR tap count and accepts the input tail;
       [advance] only ever reads the feedback side, which is identical. *)
    let comp = Companion.compile signature in
    let carries = Array.make k S.zero in
    let input_tail = Array.make (max 0 (taps - 1)) S.zero in
    let checkpoint = Checkpoint.make comp ~pos:0 ~carries ~input_tail in
    {
      signature;
      pure;
      k;
      taps;
      pool;
      opts;
      metrics;
      checkpoint_every = max 1 checkpoint_every;
      tol;
      comp;
      carries;
      input_tail;
      fplan = None;
      pos = 0;
      digest = checkpoint.Checkpoint.digest;
      checkpoint;
      journal = [];
      armed = None;
      n_checkpoints = 0;
      n_recoveries = 0;
      n_fastforwards = 0;
      n_detected = 0;
      n_replayed = 0;
      n_migrations = 0;
    }

  let signature t = t.signature
  let position t = t.pos
  let carries t = Array.copy t.carries

  let stats t =
    {
      position = t.pos;
      checkpoints = t.n_checkpoints;
      recoveries = t.n_recoveries;
      fastforwards = t.n_fastforwards;
      detected = t.n_detected;
      replayed = t.n_replayed;
      migrations = t.n_migrations;
    }

  let metric t f = match t.metrics with None -> () | Some m -> f m

  (* ------------------------------------------------- the stream filter *)
  (* The same stateful-filter mechanics as [Plr_multicore.Stream]: the
     FIR stage reads the saved input tail, the pure recurrence solves in
     parallel, and the boundary sweep folds the saved carries in.  The
     session reimplements it (rather than wrapping a [Stream.t]) because
     recovery must read and write the state words directly. *)

  let ensure_plan t len =
    let have = match t.fplan with None -> 0 | Some fp -> fp.FP.m in
    if len > have then
      t.fplan <-
        Some
          (FP.of_feedback ~opts:t.opts ~max_period:64
             ~feedback:t.signature.Signature.feedback
             ~m:(max len (2 * max 1 have)) ())

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

  let correct_boundary t fp y ~n =
    for j = 0 to t.k - 1 do
      FP.apply_list fp ~j ~carry:t.carries.(j) y ~base:0 ~len:n
    done

  exception Detected of string

  (* The faulted solve: run the engine under the injected plan and check
     the whole chunk against the serial reference.  Anything that raised
     or diverged is [Detected] — the session never lets a faulted chunk's
     output (or state update) through unverified, so silent divergence is
     structurally impossible on this path. *)
  let solve_pure t tseq ~fault_seed =
    match fault_seed with
    | None -> Multicore.run ~opts:t.opts ~pool:t.pool t.pure tseq
    | Some seed ->
        let n = Array.length tseq in
        let m = max t.k (min faulted_chunk n) in
        let chunks = (n + m - 1) / m in
        let faults =
          Faults.random ~seed ~chunks ~lanes:(max 1 t.k) ~max_events:3 ()
        in
        let y =
          match
            Multicore.run ~opts:t.opts ~faults ~pool:t.pool
              ~chunk_size:faulted_chunk t.pure tseq
          with
          | y -> y
          | exception Plr_exec.Lookback.Fault_detected msg ->
              raise (Detected msg)
          | exception e -> raise (Detected (Printexc.to_string e))
        in
        let expected = Serial.full t.pure tseq in
        Array.iteri
          (fun i v ->
            if not (S.approx_equal ~tol:t.tol v y.(i)) then
              raise
                (Detected
                   (Printf.sprintf "faulted engine diverged at index %d" i)))
          expected;
        y

  (* Process one data segment: no journaling, no checkpointing — exactly
     the state transition, so recovery replay goes through this same code
     and reproduces the state bit-for-bit. *)
  let process_data ?fault_seed t x =
    let n = Array.length x in
    if n = 0 then [||]
    else begin
      let tseq = fir_with_history t x in
      let y = solve_pure t tseq ~fault_seed in
      if t.pos > 0 then begin
        ensure_plan t n;
        match t.fplan with
        | None -> assert false
        | Some fp -> correct_boundary t fp y ~n
      end;
      t.carries <-
        Array.init t.k (fun j ->
            if n - 1 - j >= 0 then y.(n - 1 - j) else t.carries.(j - n));
      let nh = Array.length t.input_tail in
      if nh > 0 then
        t.input_tail <-
          Array.init nh (fun h ->
              let back = nh - 1 - h in
              if n - 1 - back >= 0 then x.(n - 1 - back)
              else t.input_tail.(nh - 1 - (back - n)));
      t.pos <- t.pos + n;
      y
    end

  (* A gap of [n] zero inputs.  The FIR stage still reads the input tail
     for the first [taps - 1] steps, so that warm-up runs through the
     ordinary data path; the remainder is pure feedback on zero input —
     one O(k³ log g) companion skip-ahead instead of O(g) work. *)
  let gap_advance t n =
    let warm = min n (max 0 (t.taps - 1)) in
    if warm > 0 then ignore (process_data t (Array.make warm S.zero));
    let g = n - warm in
    if g > 0 then begin
      Trace.begin_span2 Trace.Serve "session.ff" t.pos g;
      t.carries <- Companion.advance t.comp ~state:t.carries ~steps:g;
      t.pos <- t.pos + g;
      t.n_fastforwards <- t.n_fastforwards + 1;
      metric t (fun m -> Metrics.Counter.incr m.Metrics.session_fastforwards);
      Trace.end_span ()
    end

  (* ------------------------------------------------ checkpoint/recover *)

  let take_checkpoint t =
    Trace.begin_span2 Trace.Serve "session.checkpoint" t.pos
      (List.length t.journal);
    t.checkpoint <-
      Checkpoint.make t.comp ~pos:t.pos ~carries:t.carries
        ~input_tail:t.input_tail;
    t.journal <- [];
    t.n_checkpoints <- t.n_checkpoints + 1;
    metric t (fun m -> Metrics.Counter.incr m.Metrics.session_checkpoints);
    Trace.end_span ()

  let maybe_checkpoint t =
    if t.pos - t.checkpoint.Checkpoint.pos >= t.checkpoint_every then
      take_checkpoint t

  let segment_data_length = function Data x -> Array.length x | Gap _ -> 0

  (* Restore the last checkpoint and bring the state back to the current
     position by replaying the journal — data segments re-run through the
     exact original code path (bitwise-identical state), gaps re-run
     through the companion skip-ahead.  Only the elements since the last
     checkpoint are replayed, never the whole stream. *)
  let recover t =
    let cp = t.checkpoint in
    if not (Checkpoint.valid cp) then
      failwith "session: last checkpoint is corrupted, cannot recover";
    let journal = List.rev t.journal in
    let replayed =
      List.fold_left (fun a s -> a + segment_data_length s) 0 journal
    in
    Trace.begin_span2 Trace.Serve "session.recover" cp.Checkpoint.pos replayed;
    t.carries <- Array.copy cp.Checkpoint.carries;
    t.input_tail <- Array.copy cp.Checkpoint.input_tail;
    t.pos <- cp.Checkpoint.pos;
    List.iter
      (function
        | Data x -> ignore (process_data t x)
        | Gap n -> gap_advance t n)
      journal;
    t.n_recoveries <- t.n_recoveries + 1;
    t.n_replayed <- t.n_replayed + replayed;
    metric t (fun m -> Metrics.Counter.incr m.Metrics.session_recoveries);
    Trace.end_span ()

  (* ------------------------------------------------------ fault intake *)

  let inject t fault = t.armed <- Some fault

  (* State-corrupting faults strike before the call's work; the digest
     check below then discovers them exactly as it would discover real
     memory corruption. *)
  let apply_armed_corruption t =
    match t.armed with
    | Some Crash ->
        t.armed <- None;
        t.carries <- Array.make t.k poison;
        t.input_tail <- Array.make (Array.length t.input_tail) poison;
        t.pos <- t.pos + 1 (* a lost position is part of losing memory *)
    | Some Corrupt_state ->
        t.armed <- None;
        if t.k > 0 then t.carries.(0) <- corrupt t.carries.(0)
        else if Array.length t.input_tail > 0 then
          t.input_tail.(0) <- corrupt t.input_tail.(0)
    | _ -> ()

  let verify_state t =
    if live_digest t <> t.digest then begin
      t.n_detected <- t.n_detected + 1;
      recover t;
      t.digest <- live_digest t
    end

  let enter t fault =
    (match fault with Some f -> inject t f | None -> ());
    apply_armed_corruption t;
    verify_state t;
    match t.armed with
    | Some (Engine_fault seed) ->
        t.armed <- None;
        Some seed
    | _ -> None

  let finish_segment t seg =
    t.journal <- seg :: t.journal;
    maybe_checkpoint t;
    t.digest <- live_digest t

  (* ---------------------------------------------------------- migration *)

  (* Move the session to another pool (in the serving layer: another
     shard).  Sticky sessions are never *stolen* — their state words live
     on the owning shard — so a move is explicit and runs the recovery
     path: restore the last checkpoint and replay the journal on the
     destination pool.  Replay is the exact original code path, so the
     rebuilt state is bit-identical to the pre-migration state and the
     stream's outputs are unaffected. *)
  let migrate t ~pool =
    if pool == t.pool then ()
    else begin
      Trace.begin_span2 Trace.Serve "session.migrate" t.pos
        (List.length t.journal);
      Fun.protect ~finally:Trace.end_span @@ fun () ->
      t.pool <- pool;
      recover t;
      t.digest <- live_digest t;
      t.n_migrations <- t.n_migrations + 1;
      metric t (fun m -> Metrics.Counter.incr m.Metrics.session_migrations)
    end

  let process ?fault t x =
    let fault_seed = enter t fault in
    let n = Array.length x in
    if n = 0 then [||]
    else begin
      let y =
        match process_data ?fault_seed t x with
        | y -> y
        | exception Detected _ ->
            (* The faulted engine raised or diverged before any state was
               committed; rebuild from the checkpoint anyway (the state is
               no longer trusted) and re-run the chunk cleanly. *)
            t.n_detected <- t.n_detected + 1;
            recover t;
            process_data t x
      in
      finish_segment t (Data (Array.copy x));
      y
    end

  let skip ?fault t n =
    if n < 0 then invalid_arg "Session.skip: negative gap";
    ignore (enter t fault : int option);
    if n > 0 then begin
      gap_advance t n;
      finish_segment t (Gap n)
    end

  let checkpoint_now t = take_checkpoint t
end
