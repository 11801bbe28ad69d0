(** Orchestrates one live run: fork the workers, SIGKILL per the fault
    schedule, respawn from stable storage, reap, merge the traces.

    The supervisor is the only process with a global view. Failures are
    real: a scheduled fault delivers SIGKILL to the worker's OS process,
    losing whatever the protocol had not pushed to its {!Store}; after
    [restart_delay] the supervisor forks the next incarnation of the
    same worker ([gen + 1]), which reloads the store and runs the
    protocol's recovery. When the run deadline passes, surviving workers
    exit on their own, traces are merged ({!Merge}) and a [run.json]
    summary is written to the run directory. *)

type result = {
  merged : string;  (** path of the merged JSONL trace *)
  chrome : string;  (** path of the merged Chrome trace *)
  events : int;
  dropped : int;  (** torn/unparsable trace lines skipped by the merge *)
  crashes : int;  (** SIGKILLs actually delivered *)
  clean_exits : int;  (** final incarnations that exited 0 *)
}

val merged_file : string -> string
val chrome_file : string -> string
val run_file : string -> string

val clean_dir : string -> unit
(** Create the run directory if needed and clear the previous run's
    artifacts — every top-level file, the [store.*] directories and the
    forked cluster agents' [agent*] scratch directories — so a reused
    directory cannot mix two runs' traces. *)

type sv_result = {
  sv_crashes : int;
  sv_clean_exits : int;
  sv_gens : (int * int) list;  (** (pid, final generation) *)
}

val supervise :
  dir:string ->
  link:Link.factory ->
  Plan.t ->
  base:float ->
  workers:int list ->
  sv_result
(** The fork/SIGKILL/respawn/reap loop over an explicit pid subset —
    the piece a cluster agent reuses for its local block, over its TCP
    [link]. [base] is the run's shared time origin and may lie in the
    future (coordinated multi-host start); the plan's kill schedule is
    filtered to [workers]. Does not validate, clean the directory, or
    merge traces. *)

val finish :
  dir:string ->
  ?extra:(string * Optimist_obs.Json.t) list ->
  Plan.t ->
  sv_result ->
  result
(** The run-directory writer shared by single-host and cluster runs:
    merge the traces under [dir] ({!Merge}), write the Chrome timeline
    and [run.json] — [extra] keys first, then {!Plan.to_json}, then
    crashes, clean_exits, events, dropped_lines and generations. *)

val run : dir:string -> Plan.t -> (result, string) Stdlib.result
(** One single-host run over the UDS mesh under [dir]: {!Plan.validate}
    (plus the [sun_path] check of [dir]) before anything is touched,
    {!clean_dir}, {!supervise} every pid, {!finish}. Blocks for
    [duration + settle] seconds plus shutdown grace. *)
