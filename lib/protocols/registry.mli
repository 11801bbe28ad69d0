(** The one table of recovery protocols.

    Every setting that runs a protocol — the simulator ({!Optimist_runner}),
    the model checker, the live worker and the multi-host cluster — names
    it by an {!id} from here, parses it with {!of_string} and reads its
    static facts from its {!entry}. Adding a protocol means one module
    (satisfying {!Protocol_intf.SIM}, or {!Protocol_intf.S} to run live)
    plus one line in this table. *)

type id =
  | Damani_garg  (** the paper's protocol, lib/core *)
  | Damani_garg_no_hold  (** ablation: deliverability hold disabled *)
  | Pessimistic
  | Sender_based
  | Strom_yemini
  | Peterson_kearns
  | Checkpoint_only
  | Coordinated  (** consistent checkpointing, Koo-Toueg style *)

(** How the simulator runs a protocol. *)
type sim =
  | Core of { hold : bool }
      (** the shared [lib/core] process through [System], with or
          without the deliverability hold *)
  | Baseline of (module Protocol_intf.SIM)

type entry = {
  id : id;
  name : string;
      (** canonical name: what [recsim list] prints, the report's
          [protocol] field and every metric scope's label *)
  aliases : string list;  (** other spellings the parsers accept *)
  sim : sim;
  sim_rules : string list;
      (** sanitizer rules a simulated trace is expected to satisfy *)
  live_rules : string list option;
      (** rules a merged live trace is expected to satisfy; [None] for
          the protocols that do not run live *)
  fifo : bool;  (** assumes FIFO channels (Table 1's ordering column) *)
  async_recovery : bool;
      (** a restarting process resumes without waiting for any peer *)
  concurrent : string;
      (** concurrent failures the design claims to handle (Table 1) *)
}

val all : id list
(** Every protocol, in table order ([Damani_garg] first). *)

val live : id list
(** The protocols the live worker can host, in table order. *)

val entry : id -> entry
val name : id -> string

val of_string : string -> id option
(** Accepts every canonical name and alias. *)

val parse : live:bool -> string -> (id, string) result
(** {!of_string}, restricted to {!live} when [live] is set, with a
    one-line error naming the accepted protocols. *)
