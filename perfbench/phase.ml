(* What one measured phase of a workload yields.  End-to-end metrics come
   from an untraced phase; the traced run repeats the phase with spans on
   and compares the two. *)

type t = {
  elements : float;  (** output elements completed correctly *)
  melem_s : float;  (** output elements per second, in millions *)
  goodput_rps : float;  (** requests completed correctly within the SLO, per second *)
  latency : float array;
      (** seconds per request (per piece on stream); a request that failed
          is [infinity], so it misses every latency limit *)
  lateness : float array;
      (** seconds between when a request was due and when the benchmark
          called the program with it *)
  service : float array;  (** seconds spent inside the front-door call *)
  slo : float;  (** the workload's latency limit, seconds *)
}

(* A closed loop's request rate.  Each caller's rounds are (requests,
   seconds inside the round's calls); a caller's rate is the median over
   its rounds, and callers run concurrently, so their rates add.  Time the
   benchmark spends between calls (checking outputs) is not counted, and
   the median keeps a round the host stalled from moving the figure. *)
let closed_rate callers =
  List.fold_left
    (fun acc rounds ->
      if Array.length rounds = 0 then acc
      else acc +. Stats.median (Array.map (fun (r, t) -> r /. t) rounds))
    0.0 callers

(* Run [f] and report the GC work it caused: (minor words, major words,
   major collections), as [Gc.quick_stat] counts them. *)
let with_gc f =
  let a = Gc.quick_stat () in
  let v = f () in
  let b = Gc.quick_stat () in
  ( v,
    ( b.Gc.minor_words -. a.Gc.minor_words,
      b.Gc.major_words -. a.Gc.major_words,
      b.Gc.major_collections - a.Gc.major_collections ) )
