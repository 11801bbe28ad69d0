(** Seeded fault scenarios for the live soak harness.

    A scenario is everything one live run needs — process count, traffic
    shape, SIGKILL schedule, drop/dup rates, burst partitions — decided
    entirely by the (campaign seed, scenario index) pair. The same pair
    always yields the byte-identical scenario (the determinism property
    the soak's replay tokens rely on); shrunk variants keep the pair and
    travel as JSON artifacts instead. *)

type kill = { kl_at : float; kl_pid : int }

type partition = { pr_start : float; pr_stop : float; pr_island : int list }

type t = {
  sc_seed : int64;  (** campaign seed the scenario was drawn from *)
  sc_index : int;
  sc_protocol : Optimist_protocols.Registry.id;  (** one of the live ids *)
  sc_n : int;
  sc_duration : float;
  sc_settle : float;
  sc_rate : float;
  sc_hops : int;
  sc_restart_delay : float;
  sc_kills : kill list;  (** sorted by time *)
  sc_drop : float;
  sc_dup : float;  (** non-zero only for the core protocol *)
  sc_partitions : partition list;
}

val generate : seed:int64 -> index:int -> protocol:Optimist_protocols.Registry.id -> t
(** Deterministic: equal inputs yield equal records. *)

val plan :
  seed:int64 -> count:int -> protocols:Optimist_protocols.Registry.id list -> t list
(** [count] scenarios cycling through [protocols] (index [i] gets
    protocol [i mod length]). Raises [Invalid_argument] on an empty
    protocol list or [count < 1]. *)

val measure : t -> int * int * float * float
(** Shrink ordering: (kills, partitions, drop, dup), compared
    lexicographically. *)

val shrink_candidates : t -> t list
(** Strict simplifications of the scenario: every candidate has a
    strictly smaller {!measure} (drop a kill — keeping at least one —
    drop a partition, zero or halve the drop/dup rates). Empty when the
    scenario is already minimal. *)

val to_json : t -> Optimist_obs.Json.t
(** Deterministic single-line encoding, with the protocol's canonical
    name; round-trips through {!of_json}, which accepts any alias. *)

val of_json : Optimist_obs.Json.t -> (t, string) result

val replay_token : t -> string
(** ["SEED:INDEX:PROTOCOL"] — regenerates the scenario via
    {!of_token}. Only exact for unshrunk scenarios. *)

val of_token : string -> (t, string) result
(** Accepts a ["SEED:INDEX:PROTOCOL"] token or a path to a scenario
    JSON file (the shrinker's minimal artifact). *)

val live_plan : t -> Optimist_live.Plan.t
(** The live run of the scenario, for the single-host runner and the
    cluster runner alike: uniform traffic, full telemetry, and a run seed
    derived from seed and index (stable under shrinking). *)
