module Spec = Plr_gpusim.Spec
module Cost = Plr_gpusim.Cost

(* ------------------------------------------------- measured CPU tuner *)

type cpu_tuning = { chunk_size : int; domains : int; window : int }
type cpu_source = Cached | Searched | Heuristic

let cpu_source_to_string = function
  | Cached -> "cached"
  | Searched -> "searched"
  | Heuristic -> "heuristic-fallback"

let cpu_tuning_to_string t =
  Printf.sprintf "chunk=%d,domains=%d,window=%d" t.chunk_size t.domains
    t.window

(* Selection policy for the measured search: a searched winner replaces
   the measured heuristic configuration only when it beats it by a noise
   margin (5% by default).  Without the margin, one noisy fast sample can
   crown a configuration that is slower in steady state — and, persisted
   through the registry, stay slower for every later run of that shape
   (the regression BENCH_PLR.json exposed on prefix-sum and tuple2, where
   "multicore-tuned" lost to the plain heuristic).  Ties and
   within-margin wins keep the heuristic. *)
let select_cpu_tuning ?(margin = 0.05) ~heuristic ~heuristic_ns_per_elem
    ~searched ~searched_ns_per_elem () =
  if
    searched_ns_per_elem < heuristic_ns_per_elem *. (1.0 -. margin)
    || heuristic = searched
  then (searched, searched_ns_per_elem)
  else (heuristic, heuristic_ns_per_elem)

module Registry = struct
  (* One process-wide table: tunings are keyed by the structural problem
     shape (scalar domain, signature class, order, taps, n-bucket), not
     by a specific server instance, so every serving layer and CLI run
     in the process shares the measurements. *)
  let lock = Mutex.create ()
  let table : (string, cpu_tuning) Hashtbl.t = Hashtbl.create 32
  let searches_run = ref 0

  let with_lock f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  let find key = with_lock (fun () -> Hashtbl.find_opt table key)
  let store key t = with_lock (fun () -> Hashtbl.replace table key t)
  let note_search () = with_lock (fun () -> incr searches_run)
  let searches () = with_lock (fun () -> !searches_run)

  let entries () =
    with_lock (fun () ->
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let clear () =
    with_lock (fun () ->
        Hashtbl.reset table;
        searches_run := 0)

  let to_json () =
    let es = entries () in
    let b = Buffer.create 256 in
    Buffer.add_string b "{\n  \"schema\": \"plr-tuning-1\",\n";
    Buffer.add_string b
      (Printf.sprintf "  \"searches\": %d,\n  \"entries\": [\n" (searches ()));
    List.iteri
      (fun i (k, t) ->
        if i > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b
          (Printf.sprintf
             "    { \"key\": %S, \"chunk_size\": %d, \"domains\": %d, \
              \"window\": %d }"
             k t.chunk_size t.domains t.window))
      es;
    Buffer.add_string b "\n  ]\n}\n";
    Buffer.contents b

  let of_json text =
    let module J = Plr_trace.Json in
    match J.parse text with
    | Error e -> Error ("parse error: " ^ e)
    | Ok doc -> (
        match Option.bind (J.member "schema" doc) J.str with
        | Some "plr-tuning-1" -> (
            let entry_of e =
              let str name = Option.bind (J.member name e) J.str in
              let int name =
                Option.map int_of_float (Option.bind (J.member name e) J.num)
              in
              match
                (str "key", int "chunk_size", int "domains", int "window")
              with
              | Some key, Some chunk_size, Some domains, Some window
                when chunk_size > 0 && domains > 0 && window > 0 ->
                  Some (key, { chunk_size; domains; window })
              | _ -> None
            in
            let raw =
              match J.member "entries" doc with
              | Some a -> J.to_list a
              | None -> []
            in
            match
              List.fold_left
                (fun acc e ->
                  match (acc, entry_of e) with
                  | Some l, Some kv -> Some (kv :: l)
                  | _ -> None)
                (Some []) raw
            with
            | None -> Error "malformed tuning entry"
            | Some kvs ->
                List.iter (fun (k, t) -> store k t) kvs;
                Ok (List.length kvs))
        | _ -> Error "not a plr-tuning-1 document")
end

module Cpu (S : Plr_util.Scalar.S) = struct
  module M = Plr_multicore.Multicore.Make (S)
  module FP = Plr_factors.Factor_plan.Make (S)
  module Pool = Plr_exec.Pool

  type result = {
    tuning : cpu_tuning;
    ns_per_elem : float;
    heuristic : cpu_tuning;
    heuristic_ns_per_elem : float;
    trials : int;
  }

  (* Tunings generalize across nearby lengths but not across magnitudes:
     bucket n by its bit length, so e.g. every n in [2^17, 2^18) shares
     one registry entry. *)
  let n_bucket n =
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    bits 0 (max 0 n)

  let key ~n (s : S.t Signature.t) =
    let cls = Classify.classify (Signature.map S.to_float s) in
    Printf.sprintf "%s|%s|k=%d|taps=%d|n<2^%d" S.ctype
      (Classify.to_string cls) (Signature.order s) (Signature.fir_taps s)
      (n_bucket (max 1 n))

  let heuristic_tuning ~pool ~n =
    let domains = Pool.size pool in
    {
      chunk_size = Plr_exec.Lookback.default_chunk_size ~domains (max 1 n);
      domains;
      window = Plr_exec.Lookback.default_window ~pool_size:domains;
    }

  (* The candidate grid, heuristic configuration always first (it is both
     the baseline and the fallback when the budget is 1).  The grid is
     deliberately small — chunk sizes spanning the cache hierarchy, the
     pool split in half and down to one domain, windows from the minimum
     up to a deep look-back — because the budget truncates it anyway. *)
  let candidates ~pool ~n =
    let h = heuristic_tuning ~pool ~n in
    let ps = Pool.size pool in
    let chunks =
      List.sort_uniq compare
        (List.filter
           (fun c -> c >= 1024 && c <= max 1024 n)
           [ h.chunk_size; 4096; 16384; 65536; max 1024 (n / (2 * ps)) ])
    in
    let domains = List.sort_uniq compare [ ps; max 1 (ps / 2); 1 ] in
    let windows =
      List.sort_uniq compare
        (List.filter (fun w -> w >= 1) [ h.window; 4; 2 * ps; 4 * ps ])
    in
    let grid =
      List.concat_map
        (fun c ->
          List.concat_map
            (fun d ->
              List.map
                (fun w -> { chunk_size = c; domains = d; window = w })
                windows)
            domains)
        chunks
    in
    h :: List.filter (fun c -> c <> h) grid

  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    let r = Array.length a in
    if r land 1 = 1 then a.(r / 2) else (a.((r / 2) - 1) +. a.(r / 2)) /. 2.0

  let search ?(opts = Plr_factors.Opts.all_on) ?(reps = 3) ?(budget = 16)
      ~pool ~n (s : S.t Signature.t) =
    let n = max 1 n in
    let reps = max 1 reps in
    let gen = Plr_util.Splitmix.create 0x7e57 in
    let x =
      Array.init n (fun _ ->
          S.of_float (Plr_util.Splitmix.float_in gen ~lo:(-1.0) ~hi:1.0))
    in
    let cands =
      List.filteri (fun i _ -> i < max 1 budget) (candidates ~pool ~n)
    in
    Registry.note_search ();
    Plr_trace.Trace.begin_span2 Plr_trace.Trace.Engine "tune.search" n
      (List.length cands);
    Fun.protect ~finally:Plr_trace.Trace.end_span @@ fun () ->
    (* One factor plan per distinct chunk size, compiled outside the
       timed region: the search measures the schedule, not the factor
       compiler. *)
    let plans = Hashtbl.create 8 in
    let plan_for chunk =
      match Hashtbl.find_opt plans chunk with
      | Some p -> p
      | None ->
          let p =
            FP.of_feedback ~opts ~max_period:64
              ~feedback:s.Signature.feedback
              ~m:(max (max 1 (Signature.order s)) chunk)
              ()
          in
          Hashtbl.add plans chunk p;
          p
    in
    let time_candidate c =
      let cpool =
        if c.domains = Pool.size pool then pool
        else Pool.get ~domains:c.domains ()
      in
      let plan = plan_for c.chunk_size in
      let f () =
        M.run ~opts ~plan ~pool:cpool ~chunk_size:c.chunk_size
          ~window:c.window s x
      in
      ignore (Sys.opaque_identity (f ()));
      let ts =
        Array.init reps (fun _ ->
            let t0 = Unix.gettimeofday () in
            ignore (Sys.opaque_identity (f ()));
            Unix.gettimeofday () -. t0)
      in
      median ts *. 1e9 /. float_of_int n
    in
    let scored = List.map (fun c -> (c, time_candidate c)) cands in
    let heuristic, heuristic_ns_per_elem = List.hd scored in
    let best, best_ns =
      List.fold_left
        (fun (bc, bt) (c, t) -> if t < bt then (c, t) else (bc, bt))
        (List.hd scored) (List.tl scored)
    in
    let tuning, ns_per_elem =
      select_cpu_tuning ~heuristic ~heuristic_ns_per_elem ~searched:best
        ~searched_ns_per_elem:best_ns ()
    in
    {
      tuning;
      ns_per_elem;
      heuristic;
      heuristic_ns_per_elem;
      trials = List.length scored;
    }

  let get ~pool ~n s =
    match Registry.find (key ~n s) with
    | Some t -> (t, Cached)
    | None -> (heuristic_tuning ~pool ~n, Heuristic)

  let get_or_search ?opts ?reps ?budget ~pool ~n s =
    let k = key ~n s in
    match Registry.find k with
    | Some t -> (t, Cached)
    | None ->
        let r = search ?opts ?reps ?budget ~pool ~n s in
        Registry.store k r.tuning;
        (r.tuning, Searched)
end

module Make (S : Plr_util.Scalar.S) = struct
  module E = Engine.Make (S)
  module P = E.P

  type candidate = {
    threads_per_block : int;
    x : int;
    cache_budget : int;
    predicted_time : float;
    predicted_throughput : float;
  }

  let thread_choices = [ 256; 512; 1024 ]
  let budget_choices = [ 256; 1024; 4096 ]

  let max_x_for signature =
    match S.kind with
    | Plr_util.Scalar.Floating -> 9
    | Plr_util.Scalar.Integer ->
        ignore signature;
        11

  let evaluate ?(opts = Opts.all_on) ~spec ~n signature ~threads_per_block ~x
      ~cache_budget =
    let opts = Opts.with_cache_budget opts cache_budget in
    let plan = P.compile_with ~opts ~spec ~n ~threads_per_block ~x signature in
    let w = E.predict_plan ~spec plan in
    let predicted_time = Cost.time spec w in
    ( plan,
      {
        threads_per_block;
        x;
        cache_budget;
        predicted_time;
        predicted_throughput = Cost.throughput ~n ~time_s:predicted_time;
      } )

  let sweep ?opts ~spec ~n signature =
    let xs = List.init (max_x_for signature) (fun i -> i + 1) in
    List.concat_map
      (fun threads_per_block ->
        List.concat_map
          (fun x ->
            List.map
              (fun cache_budget ->
                evaluate ?opts ~spec ~n signature ~threads_per_block ~x
                  ~cache_budget)
              budget_choices)
          xs)
      thread_choices

  let candidates ?opts ~spec ~n signature =
    sweep ?opts ~spec ~n signature
    |> List.map snd
    |> List.sort (fun a b -> Float.compare a.predicted_time b.predicted_time)

  let tune ?opts ~spec ~n signature =
    let ranked =
      sweep ?opts ~spec ~n signature
      |> List.sort (fun (_, a) (_, b) -> Float.compare a.predicted_time b.predicted_time)
    in
    match ranked with
    | (plan, _) :: _ -> plan
    | [] -> P.compile ?opts ~spec ~n signature

  let default_candidate ?(opts = Opts.all_on) ~spec ~n signature =
    let plan = P.compile ~opts ~spec ~n signature in
    snd
      (evaluate ~opts ~spec ~n signature
         ~threads_per_block:plan.P.threads_per_block ~x:plan.P.x
         ~cache_budget:opts.Opts.shared_cache_budget)
end
