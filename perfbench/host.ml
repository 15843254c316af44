(* Host facts recorded with every result.  Two results are comparable
   only when these agree and a C toolchain was present. *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      let l = go [] in
      close_in_noerr ic;
      l

let status_field name =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.sub l 0 i = name ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    (read_lines "/proc/self/status")

(* CPUs this process may run on ("0-1,4" → 3), as nproc counts them. *)
let nproc () =
  match status_field "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some l ->
      List.fold_left
        (fun acc part ->
          match String.split_on_char '-' (String.trim part) with
          | [ a ] when a <> "" -> acc + (ignore (int_of_string a); 1)
          | [ a; b ] -> acc + (int_of_string b - int_of_string a + 1)
          | _ -> acc)
        0
        (String.split_on_char ',' l)
      |> max 1

(* VmHWM, the peak resident set, in MiB. *)
let peak_rss_mb () =
  match status_field "VmHWM" with
  | None -> Float.nan
  | Some v -> (
      match String.split_on_char ' ' v |> List.filter (( <> ) "") with
      | kb :: _ -> float_of_string kb /. 1024.0
      | [] -> Float.nan)

(* Cache sizes of cpu0 by level, in bytes (data/unified caches only). *)
let cache_bytes level =
  let base = "/sys/devices/system/cpu/cpu0/cache" in
  let entries = try Sys.readdir base with Sys_error _ -> [||] in
  Array.fold_left
    (fun acc e ->
      let f x =
        match read_lines (Filename.concat (Filename.concat base e) x) with
        | l :: _ -> String.trim l
        | [] -> ""
      in
      if String.length e > 5 && String.sub e 0 5 = "index"
         && f "level" = string_of_int level && f "type" <> "Instruction"
      then
        let s = f "size" in
        let n = String.length s in
        if n = 0 then acc
        else
          let mult, digits =
            match s.[n - 1] with
            | 'K' -> (1024, String.sub s 0 (n - 1))
            | 'M' -> (1024 * 1024, String.sub s 0 (n - 1))
            | _ -> (1, s)
          in
          match int_of_string_opt digits with
          | Some d -> max acc (d * mult)
          | None -> acc
      else acc)
    0 entries

let llc_bytes () =
  let l3 = cache_bytes 3 in
  if l3 > 0 then l3 else cache_bytes 2

let git_describe () =
  if not (Sys.file_exists ".git") then "not-a-git-checkout"
  else
    match Unix.open_process_args_in "git" [| "git"; "describe"; "--always"; "--dirty" |] with
    | exception Unix.Unix_error _ -> "unknown"
    | ic ->
        let l = try input_line ic with End_of_file -> "unknown" in
        ignore (Unix.close_process_in ic);
        l

(* (stolen, total) CPU ticks over all CPUs so far, from /proc/stat: time
   the hypervisor gave this machine's virtual CPUs to someone else. *)
let cpu_ticks () =
  match read_lines "/proc/stat" with
  | l :: _ when String.starts_with ~prefix:"cpu " l -> (
      let f =
        String.split_on_char ' ' l |> List.filter (( <> ) "") |> List.tl
        |> List.filter_map int_of_string_opt
      in
      match f with
      | _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          (steal, List.fold_left ( + ) 0 f)
      | _ -> (0, 0))
  | _ -> (0, 0)

(* Share of the machine's CPU time stolen between two [cpu_ticks]. *)
let steal_frac (s0, t0) (s1, t1) =
  if t1 - t0 <= 0 then 0.0 else float_of_int (s1 - s0) /. float_of_int (t1 - t0)

(* Above this share of stolen CPU time a run is marked not comparable. *)
let steal_limit = 0.05

type t = {
  nproc : int;
  recommended_domains : int;
  ocaml : string;
  git : string;
  cc : bool;
  l2_bytes : int;
  llc_bytes : int;
}

let collect () =
  {
    nproc = nproc ();
    recommended_domains = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    git = git_describe ();
    cc = Plr_jit.Jit.toolchain_available ();
    l2_bytes = cache_bytes 2;
    llc_bytes = llc_bytes ();
  }

(* The facts that must agree for two results to be compared. *)
let key h =
  Printf.sprintf "nproc=%d domains=%d ocaml=%s cc=%b l2=%d llc=%d" h.nproc
    h.recommended_domains h.ocaml h.cc h.l2_bytes h.llc_bytes

let to_json h ~array_bytes ~generator_domains ~pool_domains ~steal =
  let busy = generator_domains + pool_domains - 1 in
  Printf.sprintf
    "{\"nproc\": %d, \"recommended_domains\": %d, \"ocaml\": %S, \"git\": %S, \
     \"cc\": %b, \"l2_bytes\": %d, \"llc_bytes\": %d, \"array_bytes\": %d, \
     \"array_vs_l2\": %.2f, \"array_vs_llc\": %.4f, \"generator_domains\": %d, \
     \"pool_domains\": %d, \"running_domains\": %d, \"oversubscribed\": %b, \
     \"steal_frac\": %.4f, \"comparable\": %b, \"host_key\": %S}"
    h.nproc h.recommended_domains h.ocaml h.git h.cc h.l2_bytes h.llc_bytes
    array_bytes
    (float_of_int array_bytes /. float_of_int (max 1 h.l2_bytes))
    (float_of_int array_bytes /. float_of_int (max 1 h.llc_bytes))
    generator_domains pool_domains busy (busy > h.nproc) steal
    (h.cc && steal <= steal_limit)
    (key h)
