module Check = Optimist_check.Check

type id =
  | Damani_garg
  | Damani_garg_no_hold
  | Pessimistic
  | Sender_based
  | Strom_yemini
  | Peterson_kearns
  | Checkpoint_only
  | Coordinated

type sim = Core of { hold : bool } | Baseline of (module Protocol_intf.SIM)

type entry = {
  id : id;
  name : string;
  aliases : string list;
  sim : sim;
  sim_rules : string list;
  live_rules : string list option;
  fifo : bool;
  async_recovery : bool;
  concurrent : string;
}

(* Every live-capable baseline has the full protocol surface. *)
module _ : Protocol_intf.S = Pessimistic
module _ : Protocol_intf.S = Sender_based
module _ : Protocol_intf.S = Strom_yemini
module _ : Protocol_intf.S = Checkpoint_only
module _ : Protocol_intf.S = Coordinated

let baseline ~id ~name ?(aliases = []) ?(fifo = false) ~async_recovery
    ?(concurrent = "n") ~live (module P : Protocol_intf.SIM) =
  {
    id;
    name;
    aliases;
    sim = Baseline (module P);
    sim_rules = P.check_rules;
    live_rules = (if live then Some P.check_rules else None);
    fifo;
    async_recovery;
    concurrent;
  }

(* The Damani-Garg variants are the paper's protocol and carry every
   rule (the online-only ones need the ground-truth oracle, so a merged
   live trace gets the offline battery). *)
let table =
  [
    { id = Damani_garg; name = "damani-garg"; aliases = [ "dg" ];
      sim = Core { hold = true }; sim_rules = Check.all_ids;
      live_rules = Some Check.offline_ids; fifo = false;
      async_recovery = true; concurrent = "n" };
    { id = Damani_garg_no_hold; name = "damani-garg-nohold"; aliases = [];
      sim = Core { hold = false }; sim_rules = Check.all_ids;
      live_rules = None; fifo = false; async_recovery = true;
      concurrent = "n" };
    baseline ~id:Pessimistic ~name:"pessimistic" ~aliases:[ "pessimist" ]
      ~async_recovery:true ~live:true (module Pessimistic);
    baseline ~id:Sender_based ~name:"sender-based" ~aliases:[ "sender"; "sb" ]
      ~async_recovery:false ~concurrent:"n (single at a time)" ~live:true
      (module Sender_based);
    baseline ~id:Strom_yemini ~name:"strom-yemini" ~aliases:[ "sy" ]
      ~fifo:true ~async_recovery:true ~live:true (module Strom_yemini);
    baseline ~id:Peterson_kearns ~name:"peterson-kearns" ~fifo:true
      ~async_recovery:false ~concurrent:"1" ~live:false
      (module Peterson_kearns);
    baseline ~id:Checkpoint_only ~name:"checkpoint-only" ~aliases:[ "cpo" ]
      ~async_recovery:true ~live:true (module Checkpoint_only);
    baseline ~id:Coordinated ~name:"coordinated" ~aliases:[ "koo-toueg"; "koo" ]
      ~async_recovery:false ~live:true (module Coordinated);
  ]

let all = List.map (fun e -> e.id) table
let entry id = List.find (fun e -> e.id = id) table
let name id = (entry id).name

let live =
  List.filter_map (fun e -> Option.map (fun _ -> e.id) e.live_rules) table

let of_string s =
  List.find_map
    (fun e -> if e.name = s || List.mem s e.aliases then Some e.id else None)
    table

let parse ~live:only_live s =
  let known = if only_live then live else all in
  let names = String.concat " | " (List.map name known) in
  match of_string s with
  | Some id when List.mem id known -> Ok id
  | Some _ -> Error (Printf.sprintf "protocol %S does not run live (%s)" s names)
  | None -> Error (Printf.sprintf "unknown protocol %S (%s)" s names)
