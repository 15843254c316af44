module Pool = Plr_exec.Pool
module Cancel = Plr_exec.Cancel
module Lookback = Plr_exec.Lookback
module Trace = Plr_trace.Trace
module Opts = Plr_factors.Opts
module Tune = Plr_core.Tune
module Stability = Plr_robust.Stability
module Guard = Plr_robust.Guard
module Faults = Plr_gpusim.Faults

type error = Overloaded | Deadline_exceeded | Failed of string

let error_to_string = function
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline exceeded"
  | Failed m -> "failed: " ^ m

type breaker_state = Closed | Open | Half_open

let breaker_state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type config = {
  max_inflight : int;
  cache_capacity : int;
  chunk_size : int;
  parallel_threshold : int;
  guard : bool;
  check_prefix : int;
  opts : Opts.t;
  retries : int;
  retry_backoff : float;
  breaker_threshold : int;
  breaker_cooldown : float;
  autotune : bool;
  tune_budget : int;
  shards : int;
  steal_threshold : int;
}

let default_config =
  {
    max_inflight = 64;
    cache_capacity = 64;
    chunk_size = 4096;
    parallel_threshold = 16384;
    guard = true;
    check_prefix = 1024;
    opts = Opts.all_on;
    retries = 2;
    retry_backoff = 1e-3;
    breaker_threshold = 4;
    breaker_cooldown = 5e-2;
    autotune = false;
    tune_budget = 8;
    shards = 1;
    steal_threshold = 2;
  }

(* Signature-affinity routing wants the same key to land on the same
   shard in every process (tests, replays, paired runs), so the router
   hashes the canonical cache-key string itself with FNV-1a rather than
   relying on [Hashtbl.hash]'s unspecified mixing. *)
let fnv1a s =
  (* The 64-bit offset basis, assembled in halves: the literal itself
     does not fit OCaml's 63-bit int.  Wrap-around on the multiply is
     fine — the hash only needs determinism, not the exact FNV value. *)
  let h = ref ((0xcbf29ce4 lsl 32) lor 0x84222325) in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  !h land max_int

let now () = Unix.gettimeofday ()

module Make (S : Plr_util.Scalar.S) = struct
  module FP = Plr_factors.Factor_plan.Make (S)
  module M = Plr_multicore.Multicore.Make (S)
  module Serial = Plr_serial.Serial.Make (S)
  module G = Guard.Make (S)
  module Session = Session.Make (S)
  module TC = Tune.Cpu (S)
  module Sc = Plr_scan.Scan.Make (S)

  type entry = {
    stability : Stability.report;
    plan : FP.t;
    serial_cutoff : int;
    tuning : Tune.cpu_tuning;
    tuning_source : Tune.cpu_source;
    jit : G.JB.t option;
  }

  (* Time-varying scan requests have no signature to key a factor plan
     on; the cacheable state is the schedule shape, bucketed by request
     length so a steady mix of similar lengths shares one entry. *)
  type scan_entry = { schunk : int; swindow : int }

  (* Per-signature circuit breaker.  [Closed] counts consecutive faulty
     pooled outcomes (guard degradations and failures); at the threshold
     it opens and pooled-path requests short-circuit to the serial
     backend until the cooldown elapses, when a single half-open probe is
     let through — success closes the breaker, failure re-opens it. *)
  type breaker = {
    mutable consecutive : int;
    mutable bstate : [ `Closed | `Open of float (* retry-at *) | `Half_open ];
  }

  (* One shard: a private pool, a plan-cache partition (compiled
     factor plans, tunings, and JIT state stay hot per shard), its own
     exec lock, and the queue-depth signal the router and the stealing
     policy read.  The remaining fields are bookkeeping counters for the
     per-shard metrics export. *)
  type shard = {
    sindex : int;
    spool : Pool.t;
    scache : entry Plan_cache.t;
    sscan_cache : scan_entry Plan_cache.t;
    sexec_lock : Mutex.t; (* serializes jobs that occupy this shard's pool *)
    queue_depth : int Atomic.t;
        (* pooled requests queued on or holding [sexec_lock] right now *)
    routed : int Atomic.t; (* requests whose affinity home is this shard *)
    completed_on : int Atomic.t; (* requests whose final [Ok] ran here *)
    pooled_home : int Atomic.t; (* pooled executions that stayed home *)
    steals_in : int Atomic.t;
    steals_out : int Atomic.t;
    migrations_in : int Atomic.t;
  }

  type t = {
    config : config;
    shards_ : shard array; (* length [max 1 config.shards] *)
    owned_pools : bool;
        (* true when [create] built the shard pools itself (shards > 1)
           and [shutdown] should close them *)
    metrics : Metrics.t;
    inflight : int Atomic.t;
    breaker_lock : Mutex.t;
    breakers : (string, breaker) Hashtbl.t;
    last_tuning : string Atomic.t;
        (* latest tuning applied by a plan compile, for the metrics
           snapshot's attribution line *)
  }

  let make_shard ~config sindex spool =
    {
      sindex;
      spool;
      scache = Plan_cache.create ~capacity:config.cache_capacity ();
      sscan_cache = Plan_cache.create ~capacity:config.cache_capacity ();
      sexec_lock = Mutex.create ();
      queue_depth = Atomic.make 0;
      routed = Atomic.make 0;
      completed_on = Atomic.make 0;
      pooled_home = Atomic.make 0;
      steals_in = Atomic.make 0;
      steals_out = Atomic.make 0;
      migrations_in = Atomic.make 0;
    }

  let create ?(config = default_config) ?pool ?domains () =
    (* Large results then come from reused heap memory instead of a
       fresh, page-faulting mapping per request (see [Heap]). *)
    ignore (Plr_exec.Heap.reuse_large_blocks () : bool);
    let nshards = max 1 config.shards in
    let shards_, owned_pools =
      if nshards = 1 then
        (* The single-shard server keeps the historical behaviour: share
           the process-wide registry pool (or the caller's). *)
        let p = match pool with Some p -> p | None -> Pool.get ?domains () in
        ([| make_shard ~config 0 p |], false)
      else begin
        (* N shards need N disjoint pools; the size-keyed [Pool.get]
           registry would alias them into one.  The server creates (and
           owns) private pools — [shutdown] closes them. *)
        if pool <> None then
          invalid_arg "Serve.create: ?pool cannot be shared across shards > 1";
        ( Array.init nshards (fun i ->
              make_shard ~config i (Pool.create ?domains ())),
          true )
      end
    in
    {
      config;
      shards_;
      owned_pools;
      metrics = Metrics.create ();
      inflight = Atomic.make 0;
      breaker_lock = Mutex.create ();
      breakers = Hashtbl.create 16;
      last_tuning = Atomic.make "";
    }

  let config t = t.config
  let pool t = t.shards_.(0).spool
  let metrics t = t.metrics
  let shard_count t = Array.length t.shards_

  let shutdown t =
    if t.owned_pools then
      Array.iter (fun sh -> Pool.shutdown sh.spool) t.shards_

  let cache_stats t =
    Array.fold_left
      (fun (h, m, e) sh ->
        ( h + Plan_cache.hits sh.scache,
          m + Plan_cache.misses sh.scache,
          e + Plan_cache.evictions sh.scache ))
      (0, 0, 0) t.shards_

  type shard_stat = {
    shard : int;
    pool_size : int;
    depth : int;
    st_routed : int;
    st_completed : int;
    st_pooled_home : int;
    st_steals_in : int;
    st_steals_out : int;
    st_migrations_in : int;
    st_plan_hits : int;
    st_plan_misses : int;
  }

  let shard_stats t =
    Array.map
      (fun sh ->
        {
          shard = sh.sindex;
          pool_size = Pool.size sh.spool;
          depth = Atomic.get sh.queue_depth;
          st_routed = Atomic.get sh.routed;
          st_completed = Atomic.get sh.completed_on;
          st_pooled_home = Atomic.get sh.pooled_home;
          st_steals_in = Atomic.get sh.steals_in;
          st_steals_out = Atomic.get sh.steals_out;
          st_migrations_in = Atomic.get sh.migrations_in;
          st_plan_hits =
            Plan_cache.hits sh.scache + Plan_cache.hits sh.sscan_cache;
          st_plan_misses =
            Plan_cache.misses sh.scache + Plan_cache.misses sh.sscan_cache;
        })
      t.shards_

  let shards_json t =
    let one st =
      (* Affinity hit rate: pooled executions that ran on their home
         shard, over all pooled executions routed there. *)
      let pooled = st.st_pooled_home + st.st_steals_out in
      let affinity =
        if pooled = 0 then 1.0
        else float_of_int st.st_pooled_home /. float_of_int pooled
      in
      Printf.sprintf
        "{ \"shard\": %d, \"pool_size\": %d, \"queue_depth\": %d, \
         \"routed\": %d, \"completed_on\": %d, \"pooled_home\": %d, \
         \"steals_in\": %d, \"steals_out\": %d, \"migrations_in\": %d, \
         \"affinity_hit_rate\": %.4g, \"plan_hits\": %d, \"plan_misses\": %d }"
        st.shard st.pool_size st.depth st.st_routed st.st_completed
        st.st_pooled_home st.st_steals_in st.st_steals_out
        st.st_migrations_in affinity st.st_plan_hits st.st_plan_misses
    in
    Printf.sprintf "[ %s ]"
      (String.concat ", " (Array.to_list (Array.map one (shard_stats t))))

  let snapshot_json t =
    Metrics.snapshot_json ~pool:(pool t) ~shards:(shards_json t)
      ?tuning:
        (match Atomic.get t.last_tuning with "" -> None | s -> Some s)
      t.metrics

  let floating = S.kind = Plr_util.Scalar.Floating

  (* The canonical key: scalar domain × opts × signature.  [Opts.pp] and
     [Signature.to_string] are both deterministic renderings, so equal
     configurations collide exactly. *)
  let cache_key t (s : S.t Signature.t) =
    Format.asprintf "%s|%a|%s" S.ctype Opts.pp t.config.opts
      (Signature.to_string S.to_string s)

  (* Affinity routing: the canonical key string hashes to a home shard,
     so a signature's plans, tunings, and JIT state concentrate on one
     partition and every process routes identically. *)
  let home_shard t key = t.shards_.(fnv1a key mod Array.length t.shards_)
  let shard_of_signature t s = (home_shard t (cache_key t s)).sindex

  (* Bounded one-hop stealing: only when the home queue is at or over the
     threshold, and only to the shallowest strictly-shallower shard.
     Sticky sessions are exempt — they move via [migrate_session] only. *)
  let pick_exec_shard t home =
    if Array.length t.shards_ = 1 then home
    else begin
      let depth = Atomic.get home.queue_depth in
      if depth < t.config.steal_threshold then home
      else begin
        let best = ref home and best_depth = ref depth in
        Array.iter
          (fun sh ->
            let d = Atomic.get sh.queue_depth in
            if d < !best_depth then begin
              best := sh;
              best_depth := d
            end)
          t.shards_;
        !best
      end
    end

  (* Record the routing outcome for a pooled execution and return the
     shard that will run it.  A steal re-resolves the plan on the thief
     (each shard owns its cache partition), which the callers do. *)
  let note_exec_shard t home exec_sh =
    if exec_sh != home then begin
      Metrics.Counter.incr t.metrics.Metrics.steals;
      Atomic.incr home.steals_out;
      Atomic.incr exec_sh.steals_in;
      Trace.instant Trace.Serve "serve.steal" home.sindex exec_sh.sindex
    end
    else Atomic.incr home.pooled_home

  (* Matches the multicore backend's bound so a cache hit compiles to the
     exact plan the engine would have built for itself. *)
  let cpu_max_period = 64

  let compile_entry t sh ~n (s : S.t Signature.t) =
    let cfg = t.config in
    let k = Signature.order s in
    let stability = Stability.analyze (Signature.map S.to_float s) in
    (* The schedule tuning: a registry hit (or, with [autotune], a
       bounded measured search whose winner lands in the registry) —
       otherwise the serving defaults.  The counters and the snapshot's
       attribution line record which one this entry got. *)
    let tuning, tuning_source =
      if cfg.autotune then
        TC.get_or_search ~opts:cfg.opts ~budget:cfg.tune_budget ~pool:sh.spool
          ~n s
      else
        match Tune.Registry.find (TC.key ~n s) with
        | Some tu -> (tu, Tune.Cached)
        | None ->
            ( {
                Tune.chunk_size = cfg.chunk_size;
                domains = Pool.size sh.spool;
                window =
                  Lookback.default_window ~pool_size:(Pool.size sh.spool);
              },
              Tune.Heuristic )
    in
    Metrics.Counter.incr
      (match tuning_source with
      | Tune.Searched -> t.metrics.Metrics.tune_searched
      | Tune.Cached -> t.metrics.Metrics.tune_cached
      | Tune.Heuristic -> t.metrics.Metrics.tune_heuristic);
    Atomic.set t.last_tuning
      (Printf.sprintf "%s (%s)"
         (Tune.cpu_tuning_to_string tuning)
         (Tune.cpu_source_to_string tuning_source));
    (* The plan covers the larger of the serving and tuned chunk sizes,
       so applying the tuning never forces a silent recompile inside
       [Multicore.run]. *)
    let m = max (max 1 k) (max cfg.chunk_size tuning.Tune.chunk_size) in
    let plan =
      FP.of_feedback ~opts:cfg.opts ~max_period:cpu_max_period
        ~feedback:s.Signature.feedback ~m ()
    in
    (* The cached backend choice: a signature whose factors provably
       overflow this scalar's float width gains nothing from the pooled
       path (the guard would skip or degrade it) — pin it to the calling
       domain. *)
    let overflow =
      if S.bytes <= 4 then stability.Stability.overflow_f32
      else stability.Stability.overflow_f64
    in
    let doomed =
      floating
      && stability.Stability.cls = Stability.Unstable
      && overflow <> None
    in
    let serial_cutoff = if doomed then max_int else cfg.parallel_threshold in
    (* The native kernel compiles in the background off the same plan;
       until (unless) it is ready and verified, every dispatch below
       falls through to the portable backends.  [prepare] is [None] —
       and has already traced why — when the JIT is disabled, the
       scalar is unsupported, or no C toolchain exists. *)
    let jit = G.JB.prepare ~mode:`Async ~fplan:plan s in
    { stability; plan; serial_cutoff; tuning; tuning_source; jit }

  let plan_on ?n t sh key s =
    (* [n] sizes the tuning lookup; entries are cached per signature, so
       the first request's length picks the bucket (serving mixes are
       homogeneous per signature in practice).  The default is the first
       pooled length, the path tunings matter for. *)
    let n =
      match n with Some n -> n | None -> t.config.parallel_threshold + 1
    in
    match Plan_cache.find sh.scache key with
    | Some e ->
        Metrics.Counter.incr t.metrics.Metrics.plan_hits;
        (e, true)
    | None ->
        Metrics.Counter.incr t.metrics.Metrics.plan_misses;
        let t0 = now () in
        let e = compile_entry t sh ~n s in
        Metrics.Histogram.observe t.metrics.Metrics.plan_build (now () -. t0);
        Plan_cache.add sh.scache key e;
        (e, false)

  let plan_for ?n t s =
    let key = cache_key t s in
    plan_on ?n t (home_shard t key) key s

  let deadline_passed = function
    | None -> false
    | Some d -> now () > d

  (* -------------------------------------------------- circuit breaker *)

  let breaker_for t key =
    Mutex.lock t.breaker_lock;
    let b =
      match Hashtbl.find_opt t.breakers key with
      | Some b -> b
      | None ->
          let b = { consecutive = 0; bstate = `Closed } in
          Hashtbl.add t.breakers key b;
          b
    in
    Mutex.unlock t.breaker_lock;
    b

  let breaker_state t s =
    let b = breaker_for t (cache_key t s) in
    Mutex.lock t.breaker_lock;
    let s =
      match b.bstate with
      | `Closed -> Closed
      | `Open _ -> Open
      | `Half_open -> Half_open
    in
    Mutex.unlock t.breaker_lock;
    s

  (* Route decision for a pooled-path request: [`Pooled] while closed,
     [`Serial] while open (and while another request's half-open probe is
     in flight), [`Pooled] again for the single probe that finds the
     cooldown expired. *)
  let breaker_route t key =
    let b = breaker_for t key in
    Mutex.lock t.breaker_lock;
    let r =
      match b.bstate with
      | `Closed -> `Pooled
      | `Half_open -> `Serial
      | `Open retry_at ->
          if now () >= retry_at then begin
            b.bstate <- `Half_open;
            `Pooled
          end
          else `Serial
    in
    Mutex.unlock t.breaker_lock;
    r

  let trip t b =
    b.bstate <- `Open (now () +. t.config.breaker_cooldown);
    Metrics.Counter.incr t.metrics.Metrics.breaker_trips;
    Trace.instant Trace.Serve "breaker.trip" b.consecutive 0


  (* Fold a pooled outcome into the breaker.  A mid-flight cancellation
     (the caller's deadline, not an engine verdict) never reaches here. *)
  let breaker_report t key verdict =
    let b = breaker_for t key in
    Mutex.lock t.breaker_lock;
    (match (b.bstate, verdict) with
    | `Half_open, `Clean ->
        b.bstate <- `Closed;
        b.consecutive <- 0
    | `Half_open, `Faulty ->
        b.consecutive <- b.consecutive + 1;
        trip t b
    | `Closed, `Clean -> b.consecutive <- 0
    | `Closed, `Faulty ->
        b.consecutive <- b.consecutive + 1;
        if b.consecutive >= t.config.breaker_threshold then trip t b
    | `Open _, _ -> ());
    Mutex.unlock t.breaker_lock

  (* ------------------------------------------------------- execution *)

  (* A ready JIT kernel answers first on every recurrence path: its
     output is verified bitwise-identical to [Serial.full]. *)
  let try_jit t jit x =
    match jit with
    | None -> None
    | Some jb -> (
        match G.JB.run jb x with
        | Some y ->
            Metrics.Counter.incr t.metrics.Metrics.jit_used;
            Some y
        | None ->
            Metrics.Counter.incr t.metrics.Metrics.jit_fallback;
            None)

  (* The non-finite output check of every path the stability guard does
     not already cover: the calling-domain paths and pooled scans. *)
  let guarded t y =
    if not t.config.guard then Ok y
    else
      match G.first_non_finite y with
      | None -> Ok y
      | Some i ->
          Error (Failed (Printf.sprintf "non-finite value at index %d" i))

  let last_violation (o : G.outcome) =
    let rec last acc = function
      | [] -> acc
      | (a : Guard.attempt) :: rest ->
          last (match a.Guard.violation with Some v -> Some v | None -> acc) rest
    in
    match last None o.G.attempts with
    | Some v -> Guard.violation_to_string v
    | None -> "rejected"

  (* Pooled recurrence execution, with the outcome folded into the
     signature's breaker: an undegraded success is [`Clean], a
     degradation or failure [`Faulty].  [Cancel.Cancelled] propagates
     to the request pipeline without a verdict. *)
  let exec_pooled ?faults ~cancel t sh entry key s x =
    let cfg = t.config in
    (* The entry's tuning supplies the schedule knobs; its plan was
       compiled to cover the tuned chunk size, so no recompile here. *)
    let chunk_size = max 1 entry.tuning.Tune.chunk_size in
    let window = max 1 entry.tuning.Tune.window in
    (* Injected faults target the portable backend; letting the native
       kernel answer would silently route around the fault site, so
       fault-injected runs (chaos, tests) skip the JIT here.  Chaos
       exercises the JIT path through its own [Jit] target instead. *)
    let jit = if faults = None then entry.jit else None in
    let r, verdict =
      if cfg.guard then begin
        let mc =
          G.multicore_runner ~opts:cfg.opts ?faults ~plan:entry.plan ~cancel
            ~pool:sh.spool ~chunk_size ~window ()
        in
        (* JIT-first under the guard: a ready, verified native kernel
           answers (still subject to the guard's own checks below);
           otherwise the pooled runner does.  Inlined rather than
           [G.jit_runner] so the serving metrics see which branch ran. *)
        let runner sg input =
          match try_jit t jit input with
          | Some y -> y
          | None -> mc sg input
        in
        let o =
          G.run ~check:(Guard.Prefix cfg.check_prefix)
            ~stability:entry.stability runner s x
        in
        if o.G.ok then begin
          if o.G.degraded then Metrics.Counter.incr t.metrics.Metrics.degraded;
          (Ok o.G.output, if o.G.degraded then `Faulty else `Clean)
        end
        else (Error (Failed (last_violation o)), `Faulty)
      end
      else
        match try_jit t jit x with
        | Some y -> (Ok y, `Clean)
        | None -> (
            match
              M.run ~opts:cfg.opts ?faults ~plan:entry.plan ~cancel
                ~pool:sh.spool ~chunk_size ~window s x
            with
            | y -> (Ok y, `Clean)
            | exception Cancel.Cancelled -> raise Cancel.Cancelled
            | exception e -> (Error (Failed (Printexc.to_string e)), `Faulty))
    in
    breaker_report t key verdict;
    r

  (* Requests that occupy a shard's pool serialize on its [sexec_lock];
     the wait is the request's queue time.  [queue_depth] brackets the
     whole occupancy (queued + executing) — it is the congestion signal
     the router's steal decision reads.  The deadline is re-checked after
     the wait: a request that missed it is dropped before touching the
     pool. *)
  let exec_serialized ~t0 ?deadline t sh f =
    Atomic.incr sh.queue_depth;
    Fun.protect ~finally:(fun () -> Atomic.decr sh.queue_depth) @@ fun () ->
    Trace.begin_span2 Trace.Serve "serve.shard.exec" sh.sindex
      (Atomic.get sh.queue_depth);
    Fun.protect ~finally:Trace.end_span @@ fun () ->
    Trace.begin_span Trace.Serve "serve.queue";
    Mutex.lock sh.sexec_lock;
    Trace.end_span ();
    Metrics.Histogram.observe t.metrics.Metrics.queue_wait (now () -. t0);
    Fun.protect ~finally:(fun () -> Mutex.unlock sh.sexec_lock) @@ fun () ->
    if deadline_passed deadline then Error Deadline_exceeded
    else begin
      let e0 = now () in
      Trace.begin_span Trace.Serve "serve.exec";
      let r = f () in
      Trace.end_span ();
      Metrics.Histogram.observe t.metrics.Metrics.exec (now () -. e0);
      r
    end

  (* ------------------------------------------------ the request path *)

  (* What a request kind supplies to the one request pipeline below.
     ['e] is the kind's cached plan entry. *)
  type 'e kind = {
    cat : Trace.cat;
    request_span : string;
    flow_span : string;
    retry_span : string;
    key : string;  (* routes to the home shard and seeds the backoff *)
    n : int;  (* request length *)
    invalid : string option;
        (* a malformed request, failed before routing and never retried *)
    counters : (Metrics.Counter.t * Metrics.Counter.t * Metrics.Counter.t) option;
        (* the kind's own submitted/completed/failed attribution *)
    plan : shard -> 'e;  (* the plan entry on a shard (home or thief) *)
    local_max : 'e -> int;
        (* lengths at or below this solve on the calling domain *)
    pooled_ok : unit -> bool;
        (* [false] sends a pooled-size request to the calling domain
            (an open breaker) *)
    local : faults:Faults.plan option -> 'e -> S.t array;
        (* calling-domain evaluation; may raise *)
    pooled :
      faults:Faults.plan option -> shard -> 'e -> Cancel.t ->
      (S.t array, error) result;
        (* pooled evaluation on the given shard; may raise, including
            [Cancel.Cancelled] when the deadline fires mid-flight *)
  }

  let exec_local ~t0 t k ~faults entry =
    Metrics.Histogram.observe t.metrics.Metrics.queue_wait (now () -. t0);
    let e0 = now () in
    let r =
      match k.local ~faults entry with
      | exception e -> Error (Failed (Printexc.to_string e))
      | y -> guarded t y
    in
    Metrics.Histogram.observe t.metrics.Metrics.exec (now () -. e0);
    r

  (* One admitted attempt: admission control, then the calling domain
     for short requests (and for pooled-size ones the kind turns away),
     else the pooled engine on the home shard or a thief, with the
     deadline armed as a mid-flight cancellation token.  [served]
     reports which shard executed the attempt (differs from [home]
     exactly when the pooled path stole). *)
  let attempt_once ~t0 ?deadline ~faults ~served t k home =
    if Atomic.fetch_and_add t.inflight 1 >= t.config.max_inflight then begin
      Atomic.decr t.inflight;
      Error Overloaded
    end
    else
      Fun.protect ~finally:(fun () -> Atomic.decr t.inflight) @@ fun () ->
      let entry = k.plan home in
      if deadline_passed deadline then Error Deadline_exceeded
      else if k.n <= k.local_max entry then exec_local ~t0 t k ~faults entry
      else if not (k.pooled_ok ()) then begin
        Metrics.Counter.incr t.metrics.Metrics.breaker_shorted;
        exec_local ~t0 t k ~faults entry
      end
      else begin
        let exec_sh = pick_exec_shard t home in
        note_exec_shard t home exec_sh;
        served := exec_sh;
        (* A stolen request re-resolves its plan on the thief: each
           shard keeps its own cache partition warm. *)
        let entry = if exec_sh == home then entry else k.plan exec_sh in
        let cancel =
          match deadline with
          | None -> Cancel.none
          | Some d -> Cancel.create ~deadline:d ()
        in
        exec_serialized ~t0 ?deadline t exec_sh (fun () ->
            match k.pooled ~faults exec_sh entry cancel with
            | r -> r
            | exception Cancel.Cancelled ->
                (* The token fired at a chunk boundary: stop billing the
                   pool and report the cut as a missed deadline. *)
                Metrics.Counter.incr t.metrics.Metrics.cancelled_midflight;
                Error Deadline_exceeded
            | exception e -> Error (Failed (Printexc.to_string e)))
      end

  let classify_result t = function
    | Ok _ -> Metrics.Counter.incr t.metrics.Metrics.completed
    | Error Overloaded -> Metrics.Counter.incr t.metrics.Metrics.rejected
    | Error Deadline_exceeded ->
        Metrics.Counter.incr t.metrics.Metrics.deadline_missed
    | Error (Failed _) -> Metrics.Counter.incr t.metrics.Metrics.failed

  let retryable = function
    | Error Overloaded | Error (Failed _) -> true
    | Ok _ | Error Deadline_exceeded -> false

  let error_code = function
    | Ok _ -> -1
    | Error Overloaded -> 0
    | Error Deadline_exceeded -> 1
    | Error (Failed _) -> 2

  (* Exponential backoff with deterministic jitter: the delay sequence of
     a given (key, attempt) pair is reproducible run to run, which keeps
     the chaos campaigns and their pinned tests deterministic. *)
  let backoff_delay t ~key ~attempt =
    let gen =
      Plr_util.Splitmix.create (Hashtbl.hash key lxor ((attempt + 1) * 0x9E3779B9))
    in
    let jitter =
      float_of_int (Plr_util.Splitmix.int_in gen ~lo:0 ~hi:1000) /. 1000.0
    in
    t.config.retry_backoff *. float_of_int (1 lsl attempt) *. (0.5 +. jitter)

  (* The request pipeline both kinds run: accounting, routing to the
     home shard, and bounded retries of [attempt_once].  [t0] is the
     client-view start of the request. *)
  let serve_request ~t0 ?deadline ?faults t k =
    Metrics.Counter.incr t.metrics.Metrics.submitted;
    Option.iter (fun (sub, _, _) -> Metrics.Counter.incr sub) k.counters;
    (* One flow id per request links the request span to the pool tasks
       that execute it (across domains) in the exported trace. *)
    let flow = if Trace.enabled () then Trace.next_flow_id () else 0 in
    Trace.begin_span2 k.cat k.request_span k.n flow;
    Trace.flow_start k.cat k.flow_span flow;
    Trace.set_ambient_flow flow;
    let served = ref t.shards_.(0) in
    let r =
      match k.invalid with
      | Some m -> Error (Failed m)
      | None ->
          let home = home_shard t k.key in
          Atomic.incr home.routed;
          Trace.instant Trace.Serve "serve.shard.route" home.sindex
            (Atomic.get home.queue_depth);
          served := home;
          let rec go attempt faults =
            let r = attempt_once ~t0 ?deadline ~faults ~served t k home in
            if
              attempt < t.config.retries && retryable r
              && not (deadline_passed deadline)
            then begin
              Metrics.Counter.incr t.metrics.Metrics.retries;
              Trace.instant k.cat k.retry_span attempt (error_code r);
              let d = backoff_delay t ~key:k.key ~attempt in
              let d =
                match deadline with None -> d | Some dl -> min d (dl -. now ())
              in
              if d > 0.0 then Unix.sleepf d;
              (* Injected fault plans model transient faults: they apply
                 to the first attempt only, so a retry is a genuinely
                 clean re-run. *)
              go (attempt + 1) None
            end
            else r
          in
          go 0 faults
    in
    classify_result t r;
    (match r with Ok _ -> Atomic.incr !served.completed_on | Error _ -> ());
    Option.iter
      (fun (_, completed, failed) ->
        match r with
        | Ok _ -> Metrics.Counter.incr completed
        | Error (Failed _) -> Metrics.Counter.incr failed
        | Error _ -> ())
      k.counters;
    Metrics.Histogram.observe t.metrics.Metrics.total (now () -. t0);
    Trace.set_ambient_flow 0;
    Trace.end_span ();
    r

  (* ------------------------------------------------------------ kinds *)

  let submit ?deadline ?faults t (s : S.t Signature.t) x =
    let t0 = now () in
    let key = cache_key t s and n = Array.length x in
    serve_request ~t0 ?deadline ?faults t
      {
        cat = Trace.Serve;
        request_span = "serve.request";
        flow_span = "serve.flow";
        retry_span = "serve.retry";
        key;
        n;
        invalid = None;
        counters = None;
        plan = (fun sh -> fst (plan_on ~n t sh key s));
        local_max = (fun e -> e.serial_cutoff);
        pooled_ok = (fun () -> breaker_route t key = `Pooled);
        (* Short requests solve on the calling domain: at these lengths
           the chunked protocol cannot win, and the serial evaluation
           {e is} the reference the guard would check against. *)
        local =
          (fun ~faults e ->
            let jit = if faults = None then e.jit else None in
            match try_jit t jit x with Some y -> y | None -> Serial.full s x);
        pooled =
          (fun ~faults sh e cancel ->
            exec_pooled ?faults ~cancel t sh e key s x);
      }

  let session ?checkpoint_every t s =
    (* Sticky state lives on the signature's home shard — the same place
       plain requests for that signature land. *)
    let home = home_shard t (cache_key t s) in
    Session.create ~pool:home.spool ~opts:t.config.opts ~metrics:t.metrics
      ?checkpoint_every s

  let migrate_session t session ~shard =
    if shard < 0 || shard >= Array.length t.shards_ then
      invalid_arg "Serve.migrate_session: shard index out of range";
    let sh = t.shards_.(shard) in
    let before = (Session.stats session).Session.migrations in
    Session.migrate session ~pool:sh.spool;
    if (Session.stats session).Session.migrations > before then
      Atomic.incr sh.migrations_in

  (* ----------------------------------------- time-varying scan requests *)

  let scan_bucket n =
    let b = ref 1 in
    while !b < n do
      b := !b * 2
    done;
    !b

  let scan_key n = Printf.sprintf "scan|%s|%d" S.ctype (scan_bucket n)

  let scan_entry_for t sh n =
    let entry, hit =
      Plan_cache.find_or_add sh.sscan_cache (scan_key n) (fun () ->
          let domains = Pool.size sh.spool in
          {
            schunk = Lookback.default_chunk_size ~domains (scan_bucket n);
            swindow = Lookback.default_window ~pool_size:domains;
          })
    in
    Metrics.Counter.incr
      (if hit then t.metrics.Metrics.plan_hits
       else t.metrics.Metrics.plan_misses);
    entry

  let submit_scan ?deadline t a b =
    let t0 = now () in
    let n = Array.length a in
    let m = t.metrics in
    serve_request ~t0 ?deadline t
      {
        cat = Trace.Scan;
        request_span = "scan.request";
        flow_span = "scan.flow";
        retry_span = "scan.retry";
        key = scan_key n;
        n;
        invalid =
          (if Array.length b <> n then
             Some "coefficient streams differ in length"
           else None);
        counters =
          Some (m.Metrics.scan_submitted, m.Metrics.scan_completed,
                m.Metrics.scan_failed);
        plan = (fun sh -> scan_entry_for t sh n);
        local_max = (fun _ -> t.config.parallel_threshold);
        pooled_ok = (fun () -> true);
        local = (fun ~faults:_ _ -> Sc.serial a b);
        (* A carry fault the engine detects degrades to the serial
           evaluator — loud, counted, never silent. *)
        pooled =
          (fun ~faults:_ sh e cancel ->
            guarded t
              (match
                 Sc.run ~cancel ~pool:sh.spool ~chunk_size:e.schunk
                   ~window:e.swindow a b
               with
              | y -> y
              | exception Lookback.Fault_detected _ ->
                  Metrics.Counter.incr m.Metrics.degraded;
                  Sc.serial a b));
      }
end
