module Plan = Optimist_live.Plan
module Supervisor = Optimist_live.Supervisor
module Registry = Optimist_protocols.Registry
module Json = Optimist_obs.Json
module Scenario = Optimist_soak.Scenario
module Soak = Optimist_soak.Soak

(* The coordinator drives N agents through one cluster run: split the
   worker ids into contiguous per-agent blocks, ship every agent the
   plan (full endpoint table, full SIGKILL schedule — each agent filters
   to its block), start everyone against a shared base instant slightly
   in the future, wait for the supervision loops to finish, fetch the
   per-host traces/stats/stores back, and feed them through the
   single-host Merge and report/lint pipeline. The merged artifacts are
   indistinguishable from a single-host run's, which is the point: every
   downstream consumer (recsim check/report, the soak assessor) works
   unchanged. *)

type cfg = {
  plan : Plan.t;
  out : string;  (** coordinator-side output directory *)
  lead : float;  (** seconds between Start and the shared base *)
  worker_base : int;  (** worker pid [i] listens on [worker_base + i] *)
}

let default_cfg =
  { plan = Plan.default; out = "cluster-run"; lead = 0.5; worker_base = 7900 }

(* Contiguous pid blocks: agent [j] of [k] hosts a run of
   [n/k (+1 for the first n mod k agents)] consecutive pids. *)
let blocks ~n ~k =
  let q = n / k and r = n mod k in
  List.init k (fun j ->
      let lo = (j * q) + min j r in
      let size = q + if j < r then 1 else 0 in
      List.init size (fun i -> lo + i))

(* A fetched path must stay inside the output directory. *)
let safe_path rel =
  Filename.is_relative rel
  && rel <> ""
  && List.for_all
       (fun seg -> seg <> ".." && seg <> "")
       (String.split_on_char '/' rel)

let write_artifact ~out ~rel data =
  let rec ensure_dir d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      ensure_dir (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  let path = Filename.concat out rel in
  ensure_dir (Filename.dirname path);
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let connect ~host ~port ~timeout =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found ->
        failwith (Printf.sprintf "cannot resolve host %S" host))
  in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec attempt () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_INET (addr, port)) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ETIMEDOUT), _, _)
      when Unix.gettimeofday () < deadline ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.05;
        attempt ()
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  attempt ()

let expect_ok fd what =
  match Proto.recv_response fd with
  | Proto.Ok_ -> ()
  | Proto.Error_ msg -> failwith (Printf.sprintf "%s: %s" what msg)
  | _ -> failwith (Printf.sprintf "%s: unexpected response" what)

(* The exchange with listening agents, for a validated plan. *)
let drive ~log cfg ~peers =
  let plan = cfg.plan in
  let k = List.length peers in
  if k = 0 then Error "no agents"
  else if plan.n < k then
    Error
      (Printf.sprintf "%d agent(s) for %d worker(s) — at most one per worker"
         k plan.n)
  else begin
    let run_id =
      Printf.sprintf "run-%s-%Ld" (Registry.name plan.protocol) plan.seed
    in
    let peer_arr = Array.of_list peers in
    let pid_blocks = blocks ~n:plan.n ~k in
    let endpoints = Array.make plan.n ("", 0) in
    List.iteri
      (fun j pids ->
        let host, _ = peer_arr.(j) in
        List.iter
          (fun pid -> endpoints.(pid) <- (host, cfg.worker_base + pid))
          pids)
      pid_blocks;
    (* Agent scratch dirs (forked-localhost mode) are cleared too: their
       agents are listening, but create them only when the plan
       arrives. *)
    Supervisor.clean_dir cfg.out;
    let conns = ref [] in
    let close_all () =
      List.iter
        (fun (fd, _, _) ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        !conns
    in
    match
      begin
        (* Connect and handshake every agent before anything starts. *)
        List.iteri
          (fun j (host, port) ->
            let fd = connect ~host ~port ~timeout:5.0 in
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO
              (plan.duration +. plan.settle +. 60.0);
            conns := !conns @ [ (fd, j, Printf.sprintf "%s:%d" host port) ];
            Proto.send_request fd Proto.Hello;
            match Proto.recv_response fd with
            | Proto.Welcome { version } when version = Proto.version -> ()
            | Proto.Welcome { version } ->
                failwith
                  (Printf.sprintf
                     "agent %s:%d speaks protocol v%d, coordinator v%d \
                      (mismatched builds?)"
                     host port version Proto.version)
            | _ -> failwith "bad handshake")
          peers;
        List.iter
          (fun (fd, j, who) ->
            let a =
              {
                Proto.ag_run = run_id;
                ag_workers = List.nth pid_blocks j;
                ag_endpoints = endpoints;
                ag_plan = plan;
              }
            in
            Proto.send_request fd (Proto.Plan a);
            expect_ok fd (Printf.sprintf "agent %s rejected the plan" who))
          !conns;
        (* One shared origin, slightly in the future so every agent's
           workers are up and connected before time starts flowing. *)
        let base = Unix.gettimeofday () +. cfg.lead in
        List.iter
          (fun (fd, _, _) -> Proto.send_request fd (Proto.Start { base }))
          !conns;
        log
          (Printf.sprintf "cluster: %d agent(s) started, base +%.2fs"
             k cfg.lead);
        let crashes = ref 0 and clean_exits = ref 0 in
        let gens = ref [] in
        List.iter
          (fun (fd, _, who) ->
            match Proto.recv_response fd with
            | Proto.Done_ d ->
                crashes := !crashes + d.Supervisor.sv_crashes;
                clean_exits := !clean_exits + d.sv_clean_exits;
                gens := !gens @ d.sv_gens
            | Proto.Error_ msg ->
                failwith (Printf.sprintf "agent %s failed: %s" who msg)
            | _ -> failwith (Printf.sprintf "agent %s: unexpected response" who))
          !conns;
        (* Pull every agent's artifacts into the shared output dir. *)
        List.iter
          (fun (fd, _, who) ->
            Proto.send_request fd Proto.Fetch;
            let fetching = ref true in
            while !fetching do
              match Proto.recv_response fd with
              | Proto.File { path; data } ->
                  if safe_path path then
                    write_artifact ~out:cfg.out ~rel:path data
                  else
                    log
                      (Printf.sprintf "cluster: agent %s sent unsafe path %S — skipped"
                         who path)
              | Proto.Fetched -> fetching := false
              | Proto.Error_ msg ->
                  failwith (Printf.sprintf "agent %s fetch failed: %s" who msg)
              | _ ->
                  failwith
                    (Printf.sprintf "agent %s: unexpected fetch response" who)
            done)
          !conns;
        List.iter
          (fun (fd, _, _) ->
            Proto.send_request fd Proto.Bye;
            match Proto.recv_response fd with _ | (exception _) -> ())
          !conns;
        {
          Supervisor.sv_crashes = !crashes;
          sv_clean_exits = !clean_exits;
          sv_gens = List.sort compare !gens;
        }
      end
    with
    | exception e ->
        close_all ();
        Error (Printexc.to_string e)
    | sv ->
        close_all ();
        let extra =
          [
            ("transport", Json.String "tcp");
            ("run", Json.String run_id);
            ("agents", Json.Int k);
            ( "peers",
              Json.List
                (List.map
                   (fun (h, p) -> Json.String (Printf.sprintf "%s:%d" h p))
                   peers) );
          ]
        in
        Ok (Supervisor.finish ~dir:cfg.out ~extra plan sv)
  end

let run ?(log = fun _ -> ()) cfg ~peers =
  Result.bind (Plan.validate cfg.plan) (fun () -> drive ~log cfg ~peers)

(* Localhost multi-process mode: fork the agents ourselves (same binary,
   straight into [Agent.serve ~once]), run against them as 127.0.0.1
   peers, and reap. Control ports [port_base + j]; worker data ports
   come from [cfg.worker_base] as usual. *)
let run_forked ?(log = fun _ -> ()) ?(port_base = 7800) ~agents cfg =
  match Plan.validate cfg.plan with
  | Error _ as e -> e
  | Ok () when agents < 1 -> Error "need at least one agent"
  | Ok () ->
      let children =
        List.init agents (fun j ->
            let port = port_base + j in
            let dir = Filename.concat cfg.out (Printf.sprintf "agent%d" j) in
            match Unix.fork () with
            | 0 ->
                (try Agent.serve ~quiet:true ~once:true ~dir ~port ()
                 with e ->
                   prerr_endline
                     (Printf.sprintf "agent %d: %s" j (Printexc.to_string e));
                   Unix._exit 1);
                Unix._exit 0
            | pid -> pid)
      in
      let peers = List.init agents (fun j -> ("127.0.0.1", port_base + j)) in
      let res = drive ~log cfg ~peers in
      (match res with
      | Ok _ -> ()
      | Error _ ->
          (* A failed exchange can leave agents blocked mid-protocol. *)
          List.iter
            (fun pid ->
              try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
            children);
      List.iter
        (fun pid ->
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        children;
      res

(* Soak integration: a {!Optimist_soak.Soak.run_campaign} runner that
   executes each scenario as a forked-localhost TCP cluster and judges
   it with the shared assessor — multi-host soak without the harness
   knowing anything changed. *)
let scenario_runner ?(agents = 2) ?(port_base = 7800) ?(worker_base = 7900) ()
    ~dir (s : Scenario.t) =
  let cfg =
    { default_cfg with plan = Scenario.live_plan s; out = dir; worker_base }
  in
  Result.bind (run_forked ~port_base ~agents:(min agents s.sc_n) cfg) (fun r ->
      Soak.assess r s)
