(** One live run, described once.

    In the paper's model (§2) a run is n processes, a message pattern and
    a failure schedule; a plan is exactly that, plus the knobs of the
    live substrate (restart delay, network faults, telemetry). Every
    live layer carries this record unchanged — the worker, the
    supervisor, the cluster's wire plan and the coordinator — and adds
    only where it runs (directory, pid, incarnation, transport). *)

module Traffic = Optimist_workload.Traffic

type telemetry =
  | Off  (** null recorder: instrumentation short-circuits *)
  | Ring  (** events into a bounded in-memory ring, nothing on disk *)
  | Full  (** per-incarnation JSONL trace file (the default) *)

val telemetry_name : telemetry -> string

type t = {
  n : int;  (** workers in the whole run *)
  protocol : Optimist_protocols.Registry.id;  (** one of the live ids *)
  seed : int64;
  duration : float;  (** injection window, seconds *)
  settle : float;  (** drain time after the window, seconds *)
  rate : float;  (** injections per process per second *)
  hops : int;
  pattern : Traffic.pattern;
  kills : (float * int) list;
      (** (seconds into the run, pid) SIGKILLs, sorted by time *)
  net_faults : Link.faults;
      (** seeded Data-lane drops/dups and burst partitions *)
  restart_delay : float;  (** crash-to-respawn delay, seconds *)
  telemetry : telemetry;
}

val default : t
(** 4 workers, Damani-Garg, 3 s of traffic at 8 msg/s/process + 2 s
    settle, hops 3, uniform traffic, no faults, 0.3 s restart delay,
    full telemetry. *)

val validate : t -> (unit, string) result
(** A one-line [Error] on nonsense parameters: a protocol that does not
    run live, n < 2, a non-positive duration, rate or restart delay, a
    negative settle, a kill pid or time out of range, drop/dup rates
    outside [0, 1), an empty partition window or island, a partition pid
    out of range. *)

val to_json : t -> (string * Optimist_obs.Json.t) list
(** The plan's part of a run directory's [run.json], in file order:
    protocol, telemetry, n, seed, duration, settle, rate, hops, faults,
    drop_rate, dup_rate, partitions. *)
