(* The benchmark's own clock: CLOCK_MONOTONIC through bechamel's stub.
   The clock is system-wide, so a parent process can subtract a child's
   reading from its own (the set-up probes rely on this). *)

let now_ns () = Monotonic_clock.now ()

(* Seconds on the monotonic clock, as a float. *)
let now () = Int64.to_float (now_ns ()) *. 1e-9

(* [Serve.submit] takes an absolute [Unix.gettimeofday] deadline; convert
   a monotonic instant into that timescale at the moment of the call. *)
let wall_of_mono t = Unix.gettimeofday () +. (t -. now ())

(* Wait until monotonic instant [t]: sleep while far away, then spin, so
   the open-loop generator sends close to the intended arrival. *)
let wait_until t =
  let rec go () =
    let d = t -. now () in
    if d > 2e-3 then begin
      Unix.sleepf (d -. 1e-3);
      go ()
    end
    else if d > 0.0 then begin
      Domain.cpu_relax ();
      go ()
    end
  in
  go ()
