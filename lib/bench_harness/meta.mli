(** Provenance block for benchmark JSON exports.

    Benchmark numbers are only comparable against numbers from the same
    machine and build; the [meta] object pins down both so a dashboard
    (or a human reading two BENCH files) can tell whether a delta is a
    regression or a different box. *)

type t = {
  git : string;  (** [git describe --always --dirty], or "unknown" *)
  hostname : string;
  ocaml_version : string;
  recommended_domains : int;
  large_block_reuse : bool;
      (** whether {!Plr_exec.Heap.reuse_large_blocks} is in force.
          Collecting applies the policy, as [Serve.create] does, so
          collect before measuring. *)
  timestamp : string;  (** UTC, ISO-8601 *)
}

val collect : unit -> t

val to_json : t -> string
(** A self-contained JSON object (no trailing newline), suitable for
    embedding as the ["meta"] field of a bench export. *)
