module Pool = Plr_exec.Pool
module Recovery = Plr_exec.Recovery
module Trace = Plr_trace.Trace

type fault = Recovery.fault = Crash | Corrupt_state | Engine_fault of int

let fault_to_string = Recovery.fault_to_string

module Make (S : Plr_util.Scalar.S) = struct
  module Filter = Plr_multicore.Stream.Make (S)
  module Companion = Plr_robust.Companion.Make (S)
  module Checkpoint = Companion.Checkpoint
  module Damage = Plr_gpusim.Faults.Damage (S)

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

  (* What the recovery operations close over. *)
  type live = {
    signature : S.t Signature.t;
    opts : Plr_factors.Opts.t;
    metrics : Metrics.t option;
    comp : Companion.t;
    mutable pool : Pool.t; (* reassigned only by [migrate] *)
    mutable filter : Filter.t; (* rebuilt on the new pool by [migrate] *)
    mutable pos : int;
    mutable n_fastforwards : int;
    mutable n_migrations : int;
  }

  type t = { live : live; log : (Checkpoint.t, segment, S.t array) Recovery.t }

  let default_checkpoint_every = 1024

  let metric l f = match l.metrics with None -> () | Some m -> f m

  let data l x =
    let y = Filter.process l.filter x in
    l.pos <- l.pos + Array.length x;
    y

  (* A gap of [n] zero inputs.  The FIR stage still reads the input tail
     for the first [taps - 1] steps, so that warm-up runs through the
     filter; the remainder is pure feedback on zero input — one
     O(k³ log g) companion skip-ahead instead of O(g) work. *)
  let gap l n =
    let warm = min n (max 0 (Companion.taps l.comp - 1)) in
    if warm > 0 then ignore (data l (Array.make warm S.zero));
    let g = n - warm in
    if g > 0 then begin
      Trace.begin_span2 Trace.Serve "session.ff" l.pos g;
      let st = Filter.state l.filter in
      Filter.restore l.filter
        {
          st with
          carries = Companion.advance l.comp ~state:st.Filter.carries ~steps:g;
          started = true;
        };
      l.pos <- l.pos + g;
      l.n_fastforwards <- l.n_fastforwards + 1;
      metric l (fun m -> Metrics.Counter.incr m.Metrics.session_fastforwards);
      Trace.end_span ()
    end

  let apply l = function
    | Data x -> data l x
    | Gap n ->
        gap l n;
        [||]

  (* Damage the live words in place, as a fault would. *)
  let damage l f =
    let st = Filter.state l.filter in
    f st;
    Filter.restore l.filter st

  let ops ~tol l : (Checkpoint.t, segment, S.t array) Recovery.ops =
    let k = Companion.order l.comp in
    {
      position = (fun () -> l.pos);
      digest =
        (fun () ->
          let st = Filter.state l.filter in
          Recovery.digest ~pos:l.pos
            [ st.Filter.carries; st.Filter.input_tail ]);
      snapshot =
        (fun () ->
          let st = Filter.state l.filter in
          Checkpoint.make l.comp ~pos:l.pos ~carries:st.Filter.carries
            ~input_tail:st.Filter.input_tail);
      restore =
        (fun cp ->
          Filter.restore l.filter
            {
              Filter.carries = cp.Checkpoint.carries;
              input_tail = cp.Checkpoint.input_tail;
              started = cp.Checkpoint.pos > 0;
            };
          l.pos <- cp.Checkpoint.pos);
      apply = apply l;
      faulted =
        (fun ~seed -> function
          | Data x ->
              let before = Filter.state l.filter in
              let faults =
                Recovery.fault_plan ~seed ~n:(Array.length x) ~k
                  ~lanes:(max 1 k)
              in
              let y = Filter.process ~faults l.filter x in
              Filter.restore l.filter before;
              y
          | Gap _ -> [||]);
      agree =
        (fun faulted clean ->
          Array.for_all2 (fun f c -> S.approx_equal ~tol c f) faulted clean);
      data_length = (function Data x -> Array.length x | Gap _ -> 0);
      crash =
        (fun () ->
          damage l (fun st ->
              Array.fill st.Filter.carries 0 k Damage.poison;
              Array.fill st.Filter.input_tail 0
                (Array.length st.Filter.input_tail)
                Damage.poison);
          (* a lost position is part of losing memory *)
          l.pos <- l.pos + 1);
      corrupt =
        (fun () ->
          damage l (fun st ->
              let words =
                if k > 0 then st.Filter.carries else st.Filter.input_tail
              in
              if Array.length words > 0 then
                words.(0) <- Damage.corrupt words.(0)));
      note =
        (fun ev ->
          metric l (fun m ->
              Metrics.Counter.incr
                (match ev with
                | Recovery.Checkpointed -> m.Metrics.session_checkpoints
                | Recovery.Recovered -> m.Metrics.session_recoveries)));
    }

  let spans =
    {
      Recovery.cat = Trace.Serve;
      checkpoint = "session.checkpoint";
      recover = "session.recover";
    }

  let create ?pool ?domains ?(opts = Plr_factors.Opts.all_on) ?metrics
      ?(checkpoint_every = default_checkpoint_every) ?(tol = 1e-3)
      (signature : S.t Signature.t) =
    let pool = match pool with Some p -> p | None -> Pool.get ?domains () in
    let live =
      {
        signature;
        opts;
        metrics;
        (* Compiled from the full signature so the checkpoint layer knows
           the real FIR tap count and accepts the input tail; [advance]
           only ever reads the feedback side. *)
        comp = Companion.compile signature;
        pool;
        filter = Filter.create ~pool ~opts signature;
        pos = 0;
        n_fastforwards = 0;
        n_migrations = 0;
      }
    in
    { live; log = Recovery.create ~checkpoint_every spans (ops ~tol live) }

  let signature t = t.live.signature
  let position t = t.live.pos
  let carries t = (Filter.state t.live.filter).Filter.carries

  let stats t =
    let r = Recovery.stats t.log in
    {
      position = t.live.pos;
      checkpoints = r.Recovery.checkpoints;
      recoveries = r.Recovery.recoveries;
      fastforwards = t.live.n_fastforwards;
      detected = r.Recovery.detected;
      replayed = r.Recovery.replayed;
      migrations = t.live.n_migrations;
    }

  let inject t fault = Recovery.inject t.log fault
  let process ?fault t x = Recovery.step ?fault t.log (Data (Array.copy x))

  let skip ?fault t n =
    if n < 0 then invalid_arg "Session.skip: negative gap";
    ignore (Recovery.step ?fault t.log (Gap n) : S.t array)

  (* Sticky sessions are never *stolen* — their state words live on the
     owning shard — so a move is explicit and runs the recovery path on
     a filter built on the destination pool. *)
  let migrate t ~pool =
    let l = t.live in
    if pool != l.pool then begin
      Trace.begin_span2 Trace.Serve "session.migrate" l.pos
        (Recovery.journal_length t.log);
      Fun.protect ~finally:Trace.end_span @@ fun () ->
      l.pool <- pool;
      l.filter <- Filter.create ~pool ~opts:l.opts l.signature;
      Recovery.recover t.log;
      l.n_migrations <- l.n_migrations + 1;
      metric l (fun m -> Metrics.Counter.incr m.Metrics.session_migrations)
    end

  let checkpoint_now t = Recovery.checkpoint_now t.log
end
