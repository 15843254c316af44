module Spec = Plr_gpusim.Spec
module Device = Plr_gpusim.Device
module Counters = Plr_gpusim.Counters
module Cost = Plr_gpusim.Cost
module Faults = Plr_gpusim.Faults
module Trace = Plr_trace.Trace

exception Protocol_stall of string
(* The fault-injected scheduler proved that no blocked chunk can ever make
   progress (a dropped carry publication, §2.2's ready flags never set):
   the simulated look-back fails loudly instead of spinning forever. *)

(* Size of the PLR kernel code + CUDA kernel state beyond the data buffers;
   matches the ~2 MB gap between PLR and memcpy in the paper's Table 2. *)
let code_bytes = 2 * 1024 * 1024

module Make (S : Plr_util.Scalar.S) = struct
  module K = Kernel.Make (S)
  module P = K.P
  module Der = Derate.Make (S)
  module Buf = Plr_gpusim.Buffer.Make (S)
  module Serial = Plr_serial.Serial.Make (S)

  type result = {
    output : S.t array;
    plan : P.t;
    counters : Counters.t;
    workload : Cost.workload;
    time_s : float;
    throughput : float;
    device : Device.t;
  }

  let mul_slots =
    match S.kind with
    | Plr_util.Scalar.Integer -> Cost.int_mul_slots
    | Plr_util.Scalar.Floating -> Cost.float_mul_slots

  let workload_of_counters ~spec:_ ~(plan : P.t) (c : Counters.t) =
    let chunks = P.num_chunks plan in
    let window = min plan.P.lookback_window plan.P.grid_blocks in
    {
      Cost.zero_workload with
      Cost.dram_read_bytes = float_of_int c.Counters.main_read_bytes;
      dram_write_bytes = float_of_int c.Counters.main_write_bytes;
      compute_slots =
        float_of_int c.Counters.adds
        +. float_of_int c.Counters.selects
        +. (mul_slots *. float_of_int c.Counters.muls);
      shared_ops = float_of_int (c.Counters.shared_reads + c.Counters.shared_writes);
      shuffle_ops = float_of_int c.Counters.shuffles;
      aux_ops =
        float_of_int
          (c.Counters.aux_read_words + c.Counters.aux_write_words
         + c.Counters.flag_polls);
      atomic_ops = float_of_int c.Counters.atomics;
      launches = max 1 c.Counters.kernel_launches;
      blocks = chunks;
      threads_per_block = plan.P.threads_per_block;
      regs_per_thread = plan.P.regs_per_thread;
      (* Wave progression plus the serial in-wave look-back combines of the
         first full window (§2.3's O(ck²) carry correction). *)
      chain_hops = ((chunks + window - 1) / window) + (2 * min chunks window / 3);
      bw_derate = Der.of_plan plan;
    }

  (* Device-side auxiliary allocations: correction-factor tables, the two
     carry rings (2·c·k values) and the 2·c ready flags. *)
  let alloc_aux dev (plan : P.t) =
    let k = plan.P.order in
    let c = plan.P.lookback_window in
    let factor_base = Device.alloc dev Device.Aux ~bytes:(P.factor_table_bytes plan) in
    let local_base = Device.alloc dev Device.Aux ~bytes:(c * k * S.bytes) in
    let global_base = Device.alloc dev Device.Aux ~bytes:(c * k * S.bytes) in
    let flag_base = Device.alloc dev Device.Aux ~bytes:(2 * c * 4) in
    ignore (Device.alloc dev Device.Aux ~bytes:code_bytes);
    (factor_base, local_base, global_base, flag_base)

  (* One chunk's full block program, shared verbatim between [run] (real
     data) and [predict]'s probes (dummy data) so their counts cannot
     drift.  [read_input]/[write_output] abstract the O(n) buffers away. *)
  let chunk_program (ctx : K.ctx) ~b ~start ~len ~input ~read_input ~write_output
      ~locals ~globals ~local_addr ~global_addr ~local_flag_addr
      ~global_flag_addr ~work =
    let dev = ctx.K.dev in
    let plan = ctx.K.plan in
    let k = plan.P.order in
    let window = min plan.P.lookback_window plan.P.grid_blocks in
    let aux_read addr = Device.read dev Device.Aux ~addr ~bytes:S.bytes in
    let aux_write addr = Device.write dev Device.Aux ~addr ~bytes:S.bytes in
    Trace.begin_span2 Trace.Engine "engine.chunk" b len;
    Device.atomic dev;
    for i = 0 to len - 1 do
      work.K.wset i (read_input (start + i))
    done;
    K.fir_chunk ctx ~input ~start ~work ~len;
    Trace.begin_span2 Trace.Engine "engine.phase1" b (K.phase1_levels plan);
    K.phase1_chunk ctx work ~len;
    Trace.end_span ();
    (* Section 5: publish local carries. *)
    let local = K.carries_of_chunk plan work ~len in
    locals.(b) <- local;
    for j = 0 to k - 1 do
      aux_write (local_addr b j)
    done;
    Device.fence dev;
    Device.write dev Device.Aux ~addr:(local_flag_addr b) ~bytes:4;
    (* Section 6: look-back, carry correction, global carries. *)
    let g_pred =
      if b = 0 then None
      else begin
        let wave = b / window in
        let bg = (wave * window) - 1 in
        let depth = (b - if bg >= 0 then bg + 1 else 0)
                    + (if bg >= 0 then 1 else 0) in
        Trace.begin_span2 Trace.Engine "engine.lookback" b depth;
        let g0 =
          if bg >= 0 then begin
            Device.flag_poll dev;
            for j = 0 to k - 1 do
              aux_read (global_addr bg j)
            done;
            Some (Array.copy globals.(bg))
          end
          else None
        in
        let t0 = if bg >= 0 then bg + 1 else 0 in
        let g = ref g0 in
        for t = t0 to b - 1 do
          Device.flag_poll dev;
          for j = 0 to k - 1 do
            aux_read (local_addr t j)
          done;
          (g :=
             match !g with
             | None -> Some (Array.copy locals.(t))
             | Some gp -> Some (K.correct_carries ctx ~local:locals.(t) ~g_prev:gp))
        done;
        Trace.end_span ();
        !g
      end
    in
    (match g_pred with
    | None -> ()
    | Some g ->
        Trace.begin_span2 Trace.Engine "engine.correct" b
          (if plan.P.order > 0 then P.F.class_code plan.P.fplan 0 else -1);
        K.apply_carries ctx work ~len ~g;
        Trace.end_span ());
    let global = K.carries_of_chunk plan work ~len in
    globals.(b) <- global;
    for j = 0 to k - 1 do
      aux_write (global_addr b j)
    done;
    Device.fence dev;
    Device.write dev Device.Aux ~addr:(global_flag_addr b) ~bytes:4;
    (* Section 7: emit results. *)
    for i = 0 to len - 1 do
      write_output (start + i) (work.K.wget i)
    done;
    Trace.end_span ()

  (* Shared device/buffer setup for both the default and the
     fault-injected execution paths.  The operation order here is part of
     the counter contract: the default path must stay bit-identical. *)
  let setup_run ~with_l2 ~spec (plan : P.t) input =
    let n = Array.length input in
    assert (n = plan.P.n);
    let dev = Device.create ~with_l2 spec in
    Device.launch dev;
    let inbuf = Buf.of_array dev Device.Main input in
    let outbuf = Buf.alloc dev Device.Main n in
    let factor_base, local_base, global_base, flag_base = alloc_aux dev plan in
    let k = plan.P.order in
    let c = plan.P.lookback_window in
    let ctx = K.make_ctx ~dev ~plan ~factor_base ~input_base:(Buf.base inbuf) in
    let chunks = P.num_chunks plan in
    let locals = Array.make chunks [||] in
    let globals = Array.make chunks [||] in
    let work = K.work_make plan.P.m in
    let local_addr b j = local_base + ((((b mod c) * k) + j) * S.bytes) in
    let global_addr b j = global_base + ((((b mod c) * k) + j) * S.bytes) in
    let local_flag_addr b = flag_base + (b mod c * 4) in
    let global_flag_addr b = flag_base + ((c + (b mod c)) * 4) in
    let run_block b =
      let start = b * plan.P.m in
      let len = P.chunk_len plan b in
      chunk_program ctx ~b ~start ~len ~input ~read_input:(Buf.get inbuf)
        ~write_output:(Buf.set outbuf) ~locals ~globals ~local_addr
        ~global_addr ~local_flag_addr ~global_flag_addr ~work
    in
    (dev, outbuf, locals, globals, chunks, run_block)

  let finish_run ~spec ~(plan : P.t) ~n dev outbuf =
    let counters = Device.counters dev in
    let workload = workload_of_counters ~spec ~plan counters in
    let time_s = Cost.time spec workload in
    {
      output = Buf.to_array outbuf;
      plan;
      counters;
      workload;
      time_s;
      throughput = Cost.throughput ~n ~time_s;
      device = dev;
    }

  let run_plan_default ~with_l2 ~spec (plan : P.t) input =
    let dev, outbuf, _locals, _globals, chunks, run_block =
      setup_run ~with_l2 ~spec plan input
    in
    Trace.begin_span2 Trace.Engine "engine.run" (Array.length input) chunks;
    for b = 0 to chunks - 1 do
      run_block b
    done;
    Trace.end_span ();
    finish_run ~spec ~plan ~n:(Array.length input) dev outbuf

  let poison =
    match S.kind with
    | Plr_util.Scalar.Floating -> S.of_float Float.nan
    | Plr_util.Scalar.Integer -> S.of_int 0x5EED_BAD

  let corrupt v = S.add (S.mul v (S.of_int 3)) (S.of_int 41)

  (* Fault-injected execution: run the blocks in a perturbed order under an
     explicit flag-visibility model.  A block is runnable once every carry
     its look-back reads has been published *and* become visible; a block
     whose dependencies can never arrive (dropped publication) is a
     detected protocol stall, not a silent hang.  Because the gating
     reproduces exactly the reads [chunk_program] performs, any admissible
     completion order computes the same values as the in-order run. *)
  let run_plan_faulted ~faults ~with_l2 ~spec (plan : P.t) input =
    let dev, outbuf, locals, globals, chunks, run_block =
      setup_run ~with_l2 ~spec plan input
    in
    let k = plan.P.order in
    let window = min plan.P.lookback_window plan.P.grid_blocks in
    let order = Faults.permutation faults chunks in
    let events_at kind b = Faults.events_at faults ~chunks kind b in
    let local_vis = Array.make chunks max_int in
    let global_vis = Array.make chunks max_int in
    let completed = Array.make chunks false in
    let step = ref 0 in
    let ready b =
      b = 0
      ||
      let wave = b / window in
      let bg = (wave * window) - 1 in
      let ok = ref (bg < 0 || global_vis.(bg) <= !step) in
      let t0 = if bg >= 0 then bg + 1 else 0 in
      for t = t0 to b - 1 do
        if local_vis.(t) > !step then ok := false
      done;
      !ok
    in
    let remaining = ref chunks in
    Trace.begin_span2 Trace.Engine "engine.run" (Array.length input) chunks;
    (* Each loop iteration either completes a block or advances time to a
       strictly later publication, so [3·chunks] iterations suffice; the
       budget is a backstop against scheduler bugs, not faults. *)
    let budget = ref ((8 * chunks) + 64) in
    while !remaining > 0 do
      decr budget;
      if !budget < 0 then
        raise (Protocol_stall "fault scheduler exceeded its step budget");
      let next = ref None in
      Array.iter
        (fun b -> if !next = None && (not completed.(b)) && ready b then next := Some b)
        order;
      match !next with
      | Some b ->
          run_block b;
          let delay =
            List.fold_left (fun a (e : Faults.event) -> a + e.Faults.delay) 0
              (events_at Faults.Delay_flag b)
          in
          List.iter
            (fun (e : Faults.event) ->
              let j = e.Faults.lane mod k in
              locals.(b).(j) <- corrupt locals.(b).(j);
              globals.(b).(j) <- corrupt globals.(b).(j))
            (events_at Faults.Corrupt_carry b);
          if events_at Faults.Poison_chunk b <> [] then begin
            let out = Buf.raw outbuf in
            let start = b * plan.P.m in
            let len = P.chunk_len plan b in
            out.(start) <- poison;
            out.(start + len - 1) <- poison;
            locals.(b).(0) <- poison;
            globals.(b).(0) <- poison
          end;
          if events_at Faults.Drop_local b = [] then
            local_vis.(b) <- !step + 1 + delay;
          if events_at Faults.Drop_global b = [] then
            global_vis.(b) <- !step + 1 + delay;
          completed.(b) <- true;
          decr remaining;
          incr step
      | None ->
          (* No block is runnable now: fast-forward to the earliest
             pending publication, or report the deadlock. *)
          let future = ref max_int in
          let consider v = if v > !step && v < !future then future := v in
          Array.iter consider local_vis;
          Array.iter consider global_vis;
          if !future = max_int then
            raise
              (Protocol_stall
                 (Printf.sprintf
                    "deadlock: %d of %d chunks blocked on carry \
                     publications that will never arrive"
                    !remaining chunks))
          else step := !future
    done;
    Trace.end_span ();
    finish_run ~spec ~plan ~n:(Array.length input) dev outbuf

  let run_plan ?(faults = Faults.none) ?(with_l2 = false) ~spec (plan : P.t)
      input =
    if Faults.is_none faults then run_plan_default ~with_l2 ~spec plan input
    else run_plan_faulted ~faults ~with_l2 ~spec plan input

  let run ?(opts = Plr_factors.Opts.all_on) ?faults ?with_l2 ~spec signature input =
    let n = Array.length input in
    let plan = P.compile ~opts ~spec ~n signature in
    run_plan ?faults ?with_l2 ~spec plan input

  let validate_run ?opts ?(tol = 1e-3) ~spec signature input =
    let result = run ?opts ~spec signature input in
    let expected = Serial.full signature input in
    match Serial.validate ~tol ~expected result.output with
    | Ok () -> Ok result
    | Error msg -> Error msg

  (* [predict] replays [chunk_program] on probe chunks (charging the exact
     per-chunk costs) and accounts the chunk-count-dependent terms with a
     lightweight loop — no O(n) arrays. *)
  let predict_plan ~spec (plan : P.t) =
    let n = plan.P.n in
    let chunks = P.num_chunks plan in
    let k = plan.P.order in
    let window = min plan.P.lookback_window plan.P.grid_blocks in
    (* Probe the cost of one block program at position [b] with length
       [len], with the look-back loop suppressed (it is accounted exactly
       below because its cost varies per block). *)
    let probe ~b ~len =
      let dev = Device.create spec in
      let ctx = K.make_ctx ~dev ~plan ~factor_base:0 ~input_base:0 in
      let input = Array.make (min plan.P.m len + plan.P.m) S.zero in
      let work = K.work_make plan.P.m in
      let locals = Array.make (max 1 (b + 1)) [||] in
      let globals = Array.make (max 1 (b + 1)) [||] in
      (* Fake a start so FIR boundary reads behave like an interior chunk. *)
      let start = if b = 0 then 0 else Array.length input - len in
      let read_input _ =
        Device.read dev Device.Main ~addr:0 ~bytes:S.bytes;
        S.zero
      in
      let write_output _ _ = Device.write dev Device.Main ~addr:0 ~bytes:S.bytes in
      (* Pretend this block is 0 or 1 so the look-back loop runs 0 or 1
         iterations; subtract/add the difference below. *)
      let b' = min b 1 in
      if b' = 1 then begin
        locals.(0) <- Array.make k S.zero;
        globals.(0) <- Array.make k S.zero
      end;
      chunk_program ctx ~b:b' ~start ~len ~input ~read_input
        ~write_output ~locals ~globals
        ~local_addr:(fun _ _ -> 0)
        ~global_addr:(fun _ _ -> 0)
        ~local_flag_addr:(fun _ -> 0)
        ~global_flag_addr:(fun _ -> 0)
        ~work;
      Device.counters dev
    in
    (* Cost of one look-back combine step (poll + k local reads +
       correct_carries). *)
    let combine_cost =
      let dev = Device.create spec in
      let ctx = K.make_ctx ~dev ~plan ~factor_base:0 ~input_base:0 in
      Device.flag_poll dev;
      for _ = 1 to k do
        Device.read dev Device.Aux ~addr:0 ~bytes:S.bytes
      done;
      ignore
        (K.correct_carries ctx ~local:(Array.make k S.zero)
           ~g_prev:(Array.make k S.zero));
      Device.counters dev
    in
    (* Cost of a copy-only look-back step (wave 0 reading chunk 0's locals:
       poll + k reads, no arithmetic). *)
    let copy_cost =
      let dev = Device.create spec in
      Device.flag_poll dev;
      for _ = 1 to k do
        Device.read dev Device.Aux ~addr:0 ~bytes:S.bytes
      done;
      Device.counters dev
    in
    (* Cost of reading the predecessor wave's global carries. *)
    let global_fetch_cost = copy_cost in
    let total = Counters.create () in
    let add_counters ?(times = 1) (c : Counters.t) =
      total.Counters.main_read_words <- total.Counters.main_read_words + (times * c.Counters.main_read_words);
      total.Counters.main_write_words <- total.Counters.main_write_words + (times * c.Counters.main_write_words);
      total.Counters.main_read_bytes <- total.Counters.main_read_bytes + (times * c.Counters.main_read_bytes);
      total.Counters.main_write_bytes <- total.Counters.main_write_bytes + (times * c.Counters.main_write_bytes);
      total.Counters.aux_read_words <- total.Counters.aux_read_words + (times * c.Counters.aux_read_words);
      total.Counters.aux_write_words <- total.Counters.aux_write_words + (times * c.Counters.aux_write_words);
      total.Counters.shared_reads <- total.Counters.shared_reads + (times * c.Counters.shared_reads);
      total.Counters.shared_writes <- total.Counters.shared_writes + (times * c.Counters.shared_writes);
      total.Counters.shuffles <- total.Counters.shuffles + (times * c.Counters.shuffles);
      total.Counters.adds <- total.Counters.adds + (times * c.Counters.adds);
      total.Counters.muls <- total.Counters.muls + (times * c.Counters.muls);
      total.Counters.selects <- total.Counters.selects + (times * c.Counters.selects);
      total.Counters.atomics <- total.Counters.atomics + (times * c.Counters.atomics);
      total.Counters.flag_polls <- total.Counters.flag_polls + (times * c.Counters.flag_polls);
      total.Counters.fences <- total.Counters.fences + (times * c.Counters.fences);
      total.Counters.kernel_launches <- total.Counters.kernel_launches + (times * c.Counters.kernel_launches)
    in
    let last_len = P.chunk_len plan (chunks - 1) in
    (* Block 0 (no look-back, no carry application). *)
    add_counters (probe ~b:0 ~len:(min plan.P.m n));
    if chunks > 1 then begin
      (* Interior blocks: probe ~b:1 includes exactly one combine-loop step
         (a copy, since its predecessor is block 0 in wave 0); subtract it
         and add the exact per-block look-back costs instead. *)
      let interior = probe ~b:1 ~len:plan.P.m in
      let copy = copy_cost in
      (* interior minus one copy step: *)
      let interior_minus =
        let c = Counters.copy interior in
        c.Counters.aux_read_words <- c.Counters.aux_read_words - copy.Counters.aux_read_words;
        c.Counters.flag_polls <- c.Counters.flag_polls - copy.Counters.flag_polls;
        c
      in
      add_counters ~times:(chunks - 2) interior_minus;
      add_counters (probe ~b:1 ~len:last_len);
      (* remove the duplicated copy step of the last-block probe *)
      total.Counters.aux_read_words <- total.Counters.aux_read_words - copy.Counters.aux_read_words;
      total.Counters.flag_polls <- total.Counters.flag_polls - copy.Counters.flag_polls;
      (* Exact look-back accounting over all blocks ≥ 1. *)
      let copies = ref 0 and combines = ref 0 and gfetches = ref 0 in
      for b = 1 to chunks - 1 do
        let wave = b / window in
        let pos = b mod window in
        if wave = 0 then begin
          (* t = 0..b-1: first step copies, the rest combine *)
          incr copies;
          combines := !combines + (b - 1)
        end
        else begin
          incr gfetches;
          combines := !combines + pos
        end
      done;
      add_counters ~times:!copies copy_cost;
      add_counters ~times:!gfetches global_fetch_cost;
      add_counters ~times:!combines combine_cost
    end;
    total.Counters.kernel_launches <- 1;
    workload_of_counters ~spec ~plan total

  let predict ?(opts = Plr_factors.Opts.all_on) ~spec ~n signature =
    predict_plan ~spec (P.compile ~opts ~spec ~n signature)

  let predicted_time ?opts ~spec ~n signature =
    Cost.time spec (predict ?opts ~spec ~n signature)

  let predicted_throughput ?opts ~spec ~n signature =
    Cost.throughput ~n ~time_s:(predicted_time ?opts ~spec ~n signature)

  let memory_usage_bytes ?(opts = Plr_factors.Opts.all_on) ~spec ~n signature =
    let plan = P.compile ~opts ~spec ~n signature in
    let k = plan.P.order in
    let c = plan.P.lookback_window in
    (2 * n * S.bytes)                       (* input + output *)
    + P.factor_table_bytes plan
    + (2 * c * k * S.bytes)                 (* carry rings *)
    + (2 * c * 4)                           (* ready flags *)
    + code_bytes
end
