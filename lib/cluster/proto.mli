(** Coordinator/agent control protocol: length-prefixed marshalled
    messages over one blocking TCP connection per agent.

    The exchange is strictly request/response, driven by the
    coordinator: [Hello]/[Welcome] (version handshake), [Plan]/[Ok_]
    (ship the run plan), [Start]/[Done_] (run the supervision loop to
    completion — the one long-blocking step), [Fetch]/[File...Fetched]
    (stream back run artifacts), [Bye]/[Ok_]. Both ends must be the
    same build of the recsim binary (Marshal on the wire); [Welcome]
    carries {!version} to catch mismatches. *)

module Plan = Optimist_live.Plan
module Supervisor = Optimist_live.Supervisor

val version : int
(** 3: the plan travels as one {!Plan.t} and [Done_] carries the
    supervisor's outcome record. Version 2 spelled the plan out field by
    field. *)

type agent_cfg = {
  ag_run : string;  (** run id, for agent-side logging *)
  ag_workers : int list;  (** the pids this agent hosts *)
  ag_endpoints : (string * int) array;  (** worker pid -> host, data port *)
  ag_plan : Plan.t;
      (** the whole run, validated again on arrival. Its kill schedule is
          cluster-wide; the agent filters it down to the pids it hosts —
          this is how the coordinator schedules kills remotely *)
}

type request =
  | Hello
  | Plan of agent_cfg
  | Start of { base : float }
      (** absolute [Unix.gettimeofday] run origin, chosen slightly in
          the future so all agents' workers share one timeline
          (multi-host use assumes synchronized clocks) *)
  | Fetch
  | Bye

type response =
  | Welcome of { version : int }
  | Ok_
  | Done_ of Supervisor.sv_result  (** the agent's supervision outcome *)
  | File of { path : string; data : string }
      (** one run artifact, path relative to the agent's run directory *)
  | Fetched
  | Error_ of string

val send_request : Unix.file_descr -> request -> unit
val recv_request : Unix.file_descr -> request
val send_response : Unix.file_descr -> response -> unit
val recv_response : Unix.file_descr -> response
