type t = {
  git : string;
  hostname : string;
  ocaml_version : string;
  recommended_domains : int;
  large_block_reuse : bool;
  timestamp : string;
}

(* First line of a command's stdout, or None on any failure: bench
   provenance must never make the benchmark itself fail. *)
let command_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l when l <> "" -> Some l
    | _ -> None
  with _ -> None

let collect () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  {
    git =
      Option.value ~default:"unknown"
        (command_line "git describe --always --dirty 2>/dev/null");
    hostname = (try Unix.gethostname () with _ -> "unknown");
    ocaml_version = Sys.ocaml_version;
    recommended_domains = Domain.recommended_domain_count ();
    large_block_reuse = Plr_exec.Heap.reuse_large_blocks ();
    timestamp =
      Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
        (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
        tm.Unix.tm_sec;
  }

let to_json m =
  Printf.sprintf
    "{ \"git\": %S, \"hostname\": %S, \"ocaml_version\": %S, \
     \"recommended_domains\": %d, \"large_block_reuse\": %b, \
     \"timestamp\": %S }"
    m.git m.hostname m.ocaml_version m.recommended_domains m.large_block_reuse
    m.timestamp
