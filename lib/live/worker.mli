(** One live worker process: the protocol stack a forked child runs.

    A worker assembles the shared protocol code from [lib/core] (or a
    baseline from [lib/protocols]) on top of the live substrate:
    {!Loop} as the {!Optimist_core.Transport.runtime}, a {!Link} as
    the transport, {!Store} behind the stable hooks, and a
    per-incarnation JSONL trace file. Incarnation [gen = 0] starts
    fresh; [gen > 0] (a supervisor respawn after a SIGKILL) reloads the
    persisted image and runs the protocol's [recover] — the paper's
    Restart over real stable storage. *)

type dg = Dg

val live_check_rules : dg -> string list
(** [live_check_rules Dg] is the registry's live rule set for
    Damani-Garg. A shim kept for perfbench/bench.ml, its one caller;
    everything else reads {!Optimist_protocols.Registry.entry}. *)

val has_adapter : Optimist_protocols.Registry.id -> bool
(** Whether the worker can host the protocol. Exactly the registry's
    {!Optimist_protocols.Registry.live} ids have an adapter. *)

type cfg = {
  plan : Plan.t;  (** the run, shared by every worker *)
  dir : string;  (** run directory: stores, traces, UDS sockets *)
  me : int;
  gen : int;  (** incarnation: 0 on first spawn, +1 per restart *)
  base : float;  (** shared [Unix.gettimeofday] origin of the run *)
  link : Link.factory;
      (** the fabric: the UDS mesh under [dir] or the cluster's TCP mesh;
          it carries the plan's network faults. The worker sends
          jitter-free over it when the registry marks the protocol
          [fifo], with a (0.001, 0.02) s Data-lane jitter otherwise. *)
}

val trace_file : dir:string -> me:int -> gen:int -> string
(** The JSONL trace this incarnation writes. *)

val stats_file : dir:string -> me:int -> gen:int -> string
(** The JSON summary (counters, digest, net stats) written on clean
    exit; absent for incarnations that died to a SIGKILL. *)

val store_dir : dir:string -> me:int -> string
(** The worker's stable-storage directory (shared by incarnations). *)

val main : cfg -> unit
(** Run the worker to its deadline and write the stats file. Blocks;
    meant to be the body of a forked child. Exits 1 if the peers do not
    appear; raises [Invalid_argument] for a protocol without a
    live adapter. *)
