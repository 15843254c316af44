(* setup_s: the time from process start to "ready" (see {!Sut.setup}),
   measured on fresh child processes so that every sample starts cold: a
   new process, and a new empty JIT cache directory.  The parent reads
   the monotonic clock before it spawns the child; the child prints the
   monotonic instant at which it became ready (the clock is system-wide). *)

let flag = "--setup-probe"

(* The child side: set up, report, exit. *)
let child workload =
  ignore (Sut.setup workload);
  Printf.printf "ready %Ld\n%!" (Clock.now_ns ());
  exit 0

let env_with overrides =
  let keep v =
    not (List.exists (fun (k, _) -> String.starts_with ~prefix:(k ^ "=") v) overrides)
  in
  Array.append
    (Array.of_list (List.filter keep (Array.to_list (Unix.environment ()))))
    (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) overrides))

(* One cold set-up in a child whose JIT cache is the empty [dir]. *)
let probe ~workload ~dir =
  Unix.mkdir dir 0o755;
  let r, w = Unix.pipe ~cloexec:true () in
  let env = env_with [ ("PLR_JIT_CACHE", dir) ] in
  let t0 = Clock.now_ns () in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name; flag; workload |]
      env Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try Some (input_line ic) with End_of_file -> None in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  match (status, line) with
  | Unix.WEXITED 0, Some l -> (
      match String.split_on_char ' ' l with
      | [ "ready"; ns ] -> Int64.to_float (Int64.sub (Int64.of_string ns) t0) *. 1e-9
      | _ -> failwith ("setup probe: unexpected output " ^ l))
  | _ -> failwith "setup probe: child failed"
