(* Workload live-uds-closed: two forked workers on the UDS mesh.

   The worker body is the benchmark's own: it composes Loop, the
   Livenet link factory, Store and Process.create_rt with the
   configuration values and stable hooks the live Damani-Garg worker
   uses, so it can wrap each record with a timer. The application is the
   benchmark's own piecewise-deterministic chain app: a chain is
   injected at its origin, travels [hops] hops and its last hop returns
   to the origin, where it completes.

   Closed loop: each worker keeps [window] chains in flight; a chain that
   has not returned after [timeout] fails and is replaced. A run has two
   meshes, one after the other. The window mesh measures a fault-free
   window of the given length and exits. The recovery mesh starts
   [restart_chains] chains per worker, so its stores hold the same amount
   of work whatever the host's speed; once they have returned or timed
   out and a flush has run, both workers are SIGKILLed and respawned at
   once to time a restart from those stores. This is repeated [restarts]
   times, each time after both successors have delivered and gone quiet.
   The whole mesh goes down because a lone survivor would resend its
   whole send history to the restarted peer over the control lane, which
   the UDS mesh (max_dgram_qlen 10) does not drain within a run. The
   restart figures therefore time a cold restart of the whole mesh; the
   survivor side of a one-process recovery (its rollback and control-lane
   retransmits) is not measured.

   run.py pins the benchmark, and so both workers, to one CPU, and every
   timing is scaled to the reference speed of Pb.Calib: see [calib_every]
   for the window and [quiet_units] in [run] for the restarts. *)

module Types = Optimist_core.Types
module Process = Optimist_core.Process
module Transport = Optimist_core.Transport
module Metrics = Optimist_obs.Metrics
module Trace = Optimist_obs.Trace
module Json = Optimist_obs.Json
module Loop = Optimist_live.Loop
module Link = Optimist_live.Link
module Livenet = Optimist_live.Livenet
module Store = Optimist_live.Store
module Worker = Optimist_live.Worker
module Rec = Pb.Rec

let n = 2
let hops = 8

(* A chain not back after this long (chains take about 2 ms at p95) has
   failed; it is replaced, so a lost datagram costs its slot only this
   long. *)
let timeout = 0.1

(* Closed-loop window per worker. With both workers on one vCPU of a
   2-vCPU host, W = 1, 2, 4, 8, 16 gave 45.6k, 50.1k, 50.3k, 52.8k and
   48.3k raw msg/s (one 8 s window each), with 10, 16, 40, 413 and 1531
   chains lost to dropped datagrams: the rate is level from 2 on, and 4
   keeps the drops of bursts in view. (On two vCPUs it rose to 4: 43k,
   62k, 69k, 71k, 72k.) *)
let window = 4

(* Times the recovery mesh is killed and restarted. *)
let restarts = 6

(* Chains each worker of the recovery mesh starts before it is first
   killed: about 135k log entries per store, which a restart reloads in
   about 0.3 s of CPU on a 2-vCPU host. *)
let restart_chains = 15_000

(* The configuration values of the live Damani-Garg worker. *)
let config =
  {
    Types.default_config with
    checkpoint_interval = 1.0;
    flush_interval = 0.25;
    restart_delay = 0.3;
    retransmit_lost = true;
  }

(* --- the chain application ------------------------------------------ *)

type msg = { chain : int; hop : int; t0 : float }
type state = { count : int; acc : int }

let origin_of chain = chain lsr 40

let mix a b c =
  let h = (a * 0x9E3779B1) lxor (b * 0x85EBCA77) lxor (c * 0xC2B2AE3D) in
  let h = h lxor (h lsr 15) in
  (h * 0x27D4EB2F) land max_int

let app : (state, msg) Types.app =
  {
    Types.init = (fun _ -> { count = 0; acc = 0 });
    on_message =
      (fun ~me ~src:_ st m ->
        let st' = { count = st.count + 1; acc = mix st.acc m.chain m.hop } in
        if m.hop <= 0 then (st', [])
        else
          let origin = origin_of m.chain in
          let dst =
            if m.hop = 1 && origin <> me then origin
            else
              let d = mix me m.chain st.count mod (n - 1) in
              if d >= me then d + 1 else d
          in
          (st', [ (dst, { m with hop = m.hop - 1 }) ]));
  }

(* --- run layout ------------------------------------------------------- *)

type cfg = {
  dir : string;
  seed : int64;
  base : float;  (** wall-clock origin of loop time *)
  w0 : float;  (** measured window, loop time *)
  w1 : float;
  stop : float;  (** workers leave their loop here *)
  traced : bool;
  budget : int option;
      (** recovery mesh: chains each first incarnation starts; the window
          mesh has none and starts chains until the window ends *)
}

let store_dir dir ~me = Filename.concat dir (Printf.sprintf "store.w%d" me)
let records_file dir ~me ~gen = Filename.concat dir (Printf.sprintf "res.%d.g%d" me gen)
let done_file dir ~me ~gen = Filename.concat dir (Printf.sprintf "done.%d.g%d" me gen)
let spans_file dir ~me ~gen = Filename.concat dir (Printf.sprintf "spans.%d.g%d.tsv" me gen)
let calib_file dir ~me = Filename.concat dir (Printf.sprintf "calib.%d" me)

(* The window mesh pauses every [calib_every] seconds of the window,
   from its start to its end, to run the reference unit (Pb.Calib) while
   it is quiet: it stops starting chains [drain] before the mark, worker
   w runs its units at the mark plus w * [stagger], and chains start again
   [resume] after the mark. Each active stretch between two pauses is
   timed at the speed of the units at its two ends, and the window's
   figures add up the stretches. A unit
   is timed in CPU time, so that a late chain of the peer, which shares
   the CPU, is not charged to it. *)
let calib_every = 1.0
let drain = 0.03
let stagger = 0.015
let resume = 0.035

(* Units run back to back wherever units are run; their median is used,
   as single units on this kind of host range over 2x. *)
let units = 3

(* A pause, as a worker saw it: loop time, window deliveries and CPU
   seconds when it began and when chains started again, and the median
   CPU time of its units. *)
type mark = {
  t_pause : float;
  d_pause : int;
  c_pause : float;
  u : float;
  t_resume : float;
  d_resume : int;
  c_resume : float;
}

(* The program's own trace, for the lint gate of the traced run. Lines
   are flushed one by one as the live worker does, so a SIGKILL cannot
   leave a delivery whose send the merged trace never saw; the write is
   its own span so that it is not charged to the layer emitting. *)
let open_trace cfg ~me ~gen =
  if not cfg.traced then (Trace.null, None)
  else begin
    let oc = open_out_bin (Worker.trace_file ~dir:cfg.dir ~me ~gen) in
    let write line =
      output_string oc line;
      output_char oc '\n';
      flush oc
    in
    write (Trace.to_line Trace.schema_header);
    let tracer = Trace.create () in
    Trace.attach tracer
      (Trace.sink (fun ev -> Rec.span "trace.emit" (fun () -> write (Trace.to_line ev))));
    (tracer, Some oc)
  end

(* --- worker body -------------------------------------------------------- *)

(* Build the incarnation's link and wait for the mesh: the set-up the
   benchmark times. *)
let connect cfg ~loop ~me ~gen =
  let link =
    (Livenet.factory ~dir:cfg.dir ~n ~seed:cfg.seed ()).Link.make ~loop ~me ~gen
      ~jitter:(0.0, 0.0)
  in
  if not (link.Link.ready ~timeout:10.0) then begin
    prerr_endline (Printf.sprintf "bench worker %d: mesh not ready within 10 s" me);
    Unix._exit 3
  end;
  link

let worker cfg ~me ~gen ~ready_fd =
  Pb.reset_peak_rss ();
  Rec.reset ();
  Rec.on := cfg.traced;
  let tracer, trace_oc = open_trace cfg ~me ~gen in
  let loop = Loop.create ~tracer ~base:cfg.base () in
  let link = connect cfg ~loop ~me ~gen in
  (* A respawned incarnation's readiness is not waited for. *)
  (try ignore (Unix.write_substring ready_fd "r" 0 1) with Unix.Unix_error _ -> ());
  Unix.close ready_fd;
  let now () = Loop.now loop in
  let in_window t = t >= cfg.w0 && t < cfg.w1 in
  let net0 = link.Link.transport in
  let data_sent = ref 0 and data_recv = ref 0 in
  let net =
    {
      net0 with
      Transport.send =
        (fun ~lane ~src ~dst w ->
          (match w with Types.Wire_app _ -> incr data_sent | _ -> ());
          Rec.span "link.send" (fun () -> net0.Transport.send ~lane ~src ~dst w));
      broadcast =
        (fun ~lane ~src w ->
          Rec.span "link.send" (fun () -> net0.Transport.broadcast ~lane ~src w));
      set_handler =
        (fun id f ->
          net0.Transport.set_handler id (fun w ->
              (match w with Types.Wire_app _ -> incr data_recv | _ -> ());
              Rec.span "process.handle" (fun () -> f w)));
    }
  in
  let rt0 = Loop.runtime loop in
  let rt =
    {
      rt0 with
      Transport.schedule =
        (fun ?label ~daemon ~delay action ->
          rt0.Transport.schedule ?label ~daemon ~delay (fun () ->
              Rec.span "process.timer" action));
    }
  in
  let t_open = Pb.cpu_s () in
  let store = Store.open_ (store_dir cfg.dir ~me) in
  let stable =
    {
      Process.log_appended =
        (fun entries ->
          List.iter
            (fun e -> Rec.span "store.append_log" (fun () -> Store.append_log store e))
            entries);
      log_truncated =
        (fun ~stable ->
          Rec.span "store.truncate_log" (fun () -> Store.truncate_log store ~stable));
      checkpoint_recorded =
        (fun ~position cp ->
          Rec.span "store.checkpoint" (fun () -> Store.append_checkpoint store ~position cp));
      checkpoints_discarded_after =
        (fun ~position ->
          Rec.span "store.checkpoint" (fun () ->
              Store.discard_checkpoints_after store ~position));
      tokens_logged =
        (fun tokens -> Rec.span "store.tokens" (fun () -> Store.write_tokens store tokens));
    }
  in
  let entries_loaded = ref 0 in
  let restore =
    if gen = 0 then None
    else begin
      let im_log = Rec.span "store.load_log" (fun () -> Store.load_log store) in
      entries_loaded := Array.length im_log;
      let im_checkpoints =
        Rec.span "store.load_checkpoints" (fun () -> Store.load_checkpoints store)
      in
      let im_tokens = Rec.span "store.load_tokens" (fun () -> Store.load_tokens store) in
      Some { Process.im_log; im_checkpoints; im_tokens }
    end
  in
  let bytes_reread = Store.bytes_read store in
  (* --- chain bookkeeping --- *)
  let done_fd =
    Unix.openfile (done_file cfg.dir ~me ~gen) [ Unix.O_WRONLY; O_CREAT; O_APPEND ] 0o644
  in
  let proc = ref None in
  let counter name =
    match !proc with Some p -> Metrics.Scope.get (Process.metrics p) name | None -> 0
  in
  let last_replayed = ref 0 in
  let recovered = ref (gen = 0) in
  let first_delivery = ref nan in
  let deliveries_window = ref 0 in
  let write_now = ref ignore in
  let late = ref 0 in
  let outstanding : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let paused = ref false in
  let started_window = ref 0 in
  let next_seq = ref 0 in
  let inject_chain chain t0 =
    match !proc with
    | Some p ->
        Rec.chain := chain;
        Rec.span "process.handle" (fun () -> Process.inject p { chain; hop = hops; t0 })
    | None -> ()
  in
  (* Closed loop: a fresh chain id per start, unique across the
     incarnations of a mesh. The first incarnations stop refilling at the
     end of the window or of their budget and a successor once it has
     delivered, so the mesh is quiet and flushed when it is next killed. *)
  let refill () =
    match cfg.budget with
    | _ when gen > 0 -> Float.is_nan !first_delivery
    | None -> now () < cfg.w1 && not !paused
    | Some b -> !next_seq < b
  in
  let rec start_chain () =
    let t = now () in
    let chain = (me lsl 40) lor (gen lsl 32) lor !next_seq in
    incr next_seq;
    Hashtbl.replace outstanding chain t;
    if in_window t then incr started_window;
    inject_chain chain t
  (* Every completion is written to the done file, so the parent sees a
     chain that completes twice; only an on-time completion counts as a
     completed chain. One after the timeout (or of a chain an earlier
     incarnation started) is late. *)
  and complete chain t0 =
    let t = now () in
    let on_time = Hashtbl.mem outstanding chain in
    Hashtbl.remove outstanding chain;
    if on_time && refill () then Loop.schedule loop ~delay:0.0 start_chain;
    if not on_time then incr late;
    let line =
      Json.to_string
        (Json.Obj
           [
             ("chain", Json.Int chain);
             ("t0", Json.Float t0);
             ("lat", Json.Float (t -. t0));
             ("rollbacks", Json.Int (counter "rollbacks"));
             ("on_time", Json.Bool on_time);
           ])
      ^ "\n"
    in
    ignore (Unix.write_substring done_fd line 0 (String.length line))
  in
  let wrapped_app =
    {
      app with
      Types.on_message =
        (fun ~me ~src st m ->
          (* One bump of delivered/injected or of replayed precedes every
             handler run: a moved replay counter marks a re-execution. *)
          let replayed = counter "replayed" in
          let replay = replayed <> !last_replayed || not !recovered in
          last_replayed := replayed;
          if not replay then begin
            if src <> Types.env_src then begin
              if Float.is_nan !first_delivery then begin
                first_delivery := Unix.gettimeofday ();
                Loop.schedule loop ~delay:0.0 !write_now;
                (* The last successors have shown the mesh is back: their
                   work here is done. *)
                if gen = restarts then
                  Loop.schedule loop ~delay:0.2 (fun () -> Loop.stop loop)
              end;
              if in_window (now ()) then incr deliveries_window
            end;
            if m.hop = 0 && origin_of m.chain = me then complete m.chain m.t0
          end;
          Rec.chain := m.chain;
          Rec.span "app" (fun () -> app.Types.on_message ~me ~src st m));
    }
  in
  let uid =
    let seq = ref 0 in
    fun () ->
      incr seq;
      (((gen lsl 28) + !seq) * n) + me
  in
  let p =
    Process.create_rt ~rt ~net ~app:wrapped_app ~id:me ~n ~config ~stable ?restore
      ~next_uid:uid ()
  in
  proc := Some p;
  Store.write_gen store gen;
  if gen > 0 then begin
    Rec.span "process.recover" (fun () -> Process.recover p);
    last_replayed := counter "replayed";
    recovered := true
  end;
  let recovery_s = if gen > 0 then Pb.cpu_s () -. t_open else 0.0 in
  (* --- traffic --- *)
  let rec start_all k =
    if k > 0 then begin
      start_chain ();
      start_all (k - 1)
    end
  in
  (* Not at loop time 0: before the run's base instant the loop clock
     reads 0, and events sharing a timestamp are reordered by the trace
     merge. *)
  Loop.schedule loop ~delay:0.01 (fun () -> start_all window);
  let rec expire () =
    let t = now () in
    let stale =
      Hashtbl.fold (fun c t0 acc -> if t -. t0 > timeout then c :: acc else acc) outstanding []
    in
    List.iter
      (fun c ->
        Hashtbl.remove outstanding c;
        if refill () then start_chain ())
      stale;
    Loop.schedule loop ~delay:0.02 expire
  in
  Loop.schedule loop ~delay:0.02 expire;
  (* --- accounting snapshots (a killed incarnation keeps its last) --- *)
  let loop_cpu0 = ref 0.0 in
  let write_records () =
    let cpu = Pb.cpu_s () in
    let drained = (not (refill ())) && Hashtbl.length outstanding = 0 in
    let stats = link.Link.stats () in
    let ls k = float_of_int (Option.value ~default:0 (List.assoc_opt k stats)) in
    let ss = Store.stats store in
    let st k = float_of_int (Option.value ~default:0 (List.assoc_opt k ss)) in
    let pc k = float_of_int (counter k) in
    let children = if !Rec.depth > 0 then Rec.st_child.(0) else 0.0 in
    Pb.write_records (records_file cfg.dir ~me ~gen)
      ~sums:
        [
          ("deliveries_window", float_of_int !deliveries_window);
          ("drained", if drained then 1.0 else 0.0);
          ("started_window", float_of_int !started_window);
          ("late", float_of_int !late);
          ("recovery_s", recovery_s);
          ("first_delivery_wall", !first_delivery);
          ("data_sent", float_of_int !data_sent);
          ("data_recv", float_of_int !data_recv);
          ("entries_loaded", float_of_int !entries_loaded);
          ("bytes_reread", float_of_int bytes_reread);
          ("store.bytes_written", st "bytes_written");
          ("loop.self_s", Float.max 0.0 (cpu -. !loop_cpu0 -. children));
          ("link.sent_data", ls "sent_data");
          ("link.send_errors", ls "send_errors");
          ("link.retransmits", ls "retransmits");
          ("sent", pc "sent");
          ("piggyback_words", pc "piggyback_words");
          ("delivered", pc "delivered");
          ("injected", pc "injected");
          ("replayed", pc "replayed");
          ("rollbacks", pc "rollbacks");
          ("discarded_obsolete", pc "discarded_obsolete");
          ("log_truncated", pc "log_truncated");
        ]
      ~maxes:[ ("rss_mb", Pb.peak_rss_mb ()) ]
  in
  write_now := write_records;
  write_records ();
  let marks = ref [] in
  if cfg.w1 > cfg.w0 then begin
    (* The first unit in a process faults the unit's table in. *)
    ignore (Pb.Calib.measure_cpu ());
    let k = int_of_float (Float.round ((cfg.w1 -. cfg.w0) /. calib_every)) in
    for i = 0 to k do
      let at t f = Loop.schedule loop ~delay:(t -. now ()) f in
      let mark = cfg.w0 +. (float_of_int i *. calib_every) in
      let pause = ref (nan, 0, nan) and u = ref nan in
      at (mark -. drain) (fun () ->
          paused := true;
          pause := (now (), !deliveries_window, Pb.cpu_s ()));
      at (mark +. (float_of_int me *. stagger)) (fun () -> u := Pb.Calib.units units);
      at (mark +. resume) (fun () ->
          let t_pause, d_pause, c_pause = !pause in
          marks :=
            {
              t_pause;
              d_pause;
              c_pause;
              u = !u;
              t_resume = now ();
              d_resume = !deliveries_window;
              c_resume = Pb.cpu_s ();
            }
            :: !marks;
          paused := false;
          if refill () then
            for _ = Hashtbl.length outstanding + 1 to window do
              start_chain ()
            done)
    done
  end;
  let rec snapshot () =
    write_records ();
    Loop.schedule loop ~delay:0.1 snapshot
  in
  Loop.schedule loop ~delay:0.1 snapshot;
  loop_cpu0 := Pb.cpu_s ();
  Rec.span "loop.run" (fun () -> Loop.run loop ~until:cfg.stop);
  Process.flush_now p;
  write_records ();
  if cfg.traced then Rec.dump (spans_file cfg.dir ~me ~gen);
  if !marks <> [] then
    Out_channel.with_open_bin (calib_file cfg.dir ~me) (fun oc ->
        List.iter
          (fun m ->
            Printf.fprintf oc "%.9f %d %.9f %.9f %.9f %d %.9f\n" m.t_pause m.d_pause m.c_pause
              m.u m.t_resume m.d_resume m.c_resume)
          (List.rev !marks));
  Unix.close done_fd;
  Store.close store;
  link.Link.close ();
  Trace.close tracer;
  Option.iter close_out_noerr trace_oc

(* --- parent side ----------------------------------------------------------- *)

let fork_worker body =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      (try body w
       with e ->
         prerr_endline ("bench worker: " ^ Printexc.to_string e);
         Unix._exit 1);
      Unix._exit 0
  | pid ->
      Unix.close w;
      (pid, r)

let wait_ready fd =
  let b = Bytes.create 1 in
  let ok = try Unix.read fd b 0 1 = 1 with Unix.Unix_error _ -> false in
  Unix.close fd;
  ok

let rec waitpid_status pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_status pid

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  rm_rf path;
  let rec mk p =
    if not (Sys.file_exists p) then begin
      mk (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  mk path

(* Set-up as a user pays it: fork both workers, build the links and
   wait until every link's [ready] has returned. *)
let setup_trial ~dir ~seed =
  fresh_dir dir;
  let cfg =
    {
      dir;
      seed;
      base = Unix.gettimeofday ();
      w0 = 0.0;
      w1 = 0.0;
      stop = 0.0;
      traced = false;
      budget = None;
    }
  in
  let t0 = Pb.mono () in
  let kids =
    List.init n (fun me ->
        fork_worker (fun w ->
            let loop = Loop.create ~base:cfg.base () in
            let link = connect cfg ~loop ~me ~gen:0 in
            ignore (Unix.write_substring w "r" 0 1);
            Unix.close w;
            link.Link.close ()))
  in
  let ok = List.for_all (fun (_, fd) -> wait_ready fd) kids in
  let dt = Pb.mono () -. t0 in
  let clean =
    List.for_all (fun (pid, _) -> waitpid_status pid = Unix.WEXITED 0) kids
  in
  if ok && clean then Ok dt else Error "set-up trial: a worker failed to connect"

(* An active stretch of the window: its start (loop time), the factor
   its durations are scaled by (from the median units of the pauses at
   its ends), its deliveries, wall seconds and the workers' CPU seconds. *)
type stretch = { start : float; f : float; d : float; dt : float; cpu : float }

(* Every timing below is at the reference speed (Pb.Calib) unless named
   raw. *)
type live_result = {
  setups : float list;  (** raw: set-up waits on sleeps and the kernel *)
  summary : Pb.summary;
  stretches : stretch list;
  latencies : float list;  (** seconds, first on-time completion of each window chain *)
  raw_latencies : float list;
  dup_errors : string list;
  dup_chains : int;  (** chains that completed again with no rollback between *)
  recoveries : float list;
  raw_recoveries : float list;
  outages : float list;
  started : int;
  unclean : string list;
  kills_done : int;  (** incarnations SIGKILLed *)
  dirs : string list;  (** the run directories of the two meshes *)
  peak_rss_mb : float;
      (** largest worker of the recovery mesh, whose work does not grow
          with the host's speed *)
}

type completion = { chain : int; t0 : float; lat : float; rollbacks : int; on_time : bool }

(* The done file's JSON lines, in the order they were written. *)
let read_done path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           let bad () = failwith (Printf.sprintf "%s: bad completion line %S" path l) in
           match Json.of_string l with
           | Error _ -> bad ()
           | Ok j -> (
               let int k = Option.bind (Json.mem k j) Json.to_int in
               let num k = Option.bind (Json.mem k j) Json.to_float in
               match (int "chain", num "t0", num "lat", int "rollbacks", Json.mem "on_time" j) with
               | Some chain, Some t0, Some lat, Some rollbacks, Some (Json.Bool on_time) ->
                   { chain; t0; lat; rollbacks; on_time }
               | _ -> bad ()))

(* Set-up is sampled this many times before the measured run, which
   adds one more sample. *)
let setup_trials = 15

(* Loop time 0 lies this far after a mesh is forked: the workers
   connect and schedule their traffic before it. *)
let lead = 0.5

(* A mesh is killed, or leaves, once its last chain has returned or
   timed out and a flush has run. *)
let quiesce = timeout +. config.flush_interval +. 0.25

let waitpid_clean ~what pid =
  match waitpid_status pid with
  | Unix.WEXITED 0 -> []
  | _ -> [ what ^ " did not exit cleanly" ]

(* A chain completes at most once at its origin: a second completion is
   an error unless a rollback came between, that is, the rollback count
   moved within the incarnation or the later incarnation had rolled
   back. Returns the first on-time completion of each chain as
   (t0, latency), and the errors. *)
let check_done dir ~gens =
  let first = Hashtbl.create 4096 in
  let errors = ref [] in
  for me = 0 to n - 1 do
    let seen = Hashtbl.create 4096 in
    for gen = 0 to gens do
      List.iter
        (fun c ->
          (match Hashtbl.find_opt seen c.chain with
          | Some (gen0, rb0)
            when (gen0 = gen && rb0 = c.rollbacks) || (gen0 < gen && c.rollbacks = 0) ->
              errors :=
                Printf.sprintf "chain %d completed again in worker %d gen %d of %s" c.chain me
                  gen dir
                :: !errors
          | _ -> ());
          Hashtbl.replace seen c.chain (gen, c.rollbacks);
          if c.on_time && not (Hashtbl.mem first c.chain) then
            Hashtbl.replace first c.chain (c.t0, c.lat))
        (read_done (done_file dir ~me ~gen))
    done
  done;
  (first, List.rev !errors)

(* The window's active stretches, from both workers' marks. *)
let stretches dir =
  let read me =
    let path = calib_file dir ~me in
    if not (Sys.file_exists path) then [||]
    else
      In_channel.with_open_bin path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "")
      |> List.map (fun l ->
             Scanf.sscanf l "%f %d %f %f %f %d %f"
               (fun t_pause d_pause c_pause u t_resume d_resume c_resume ->
                 { t_pause; d_pause; c_pause; u; t_resume; d_resume; c_resume }))
      |> Array.of_list
  in
  let ws = List.init n read in
  let k = List.fold_left (fun a w -> min a (Array.length w)) max_int ws in
  List.init (max 0 (k - 1)) (fun i ->
      let f = Pb.Calib.factor (List.concat_map (fun w -> [ w.(i).u; w.(i + 1).u ]) ws) in
      let sum g = List.fold_left (fun a w -> a +. g w.(i) w.(i + 1)) 0.0 ws in
      let d = sum (fun a b -> float_of_int (b.d_pause - a.d_resume)) in
      let dt = sum (fun a b -> b.t_pause -. a.t_resume) /. float_of_int n in
      let cpu = sum (fun a b -> b.c_pause -. a.c_resume) in
      { start = (List.hd ws).(i).t_resume; f; d; dt; cpu })

let read_one dir ~me ~gen =
  let one = Pb.new_summary () in
  Pb.read_records one (records_file dir ~me ~gen);
  one

let run ~root ~seed ~seconds ~traced =
  fresh_dir root;
  let setups = ref [] in
  let errors = ref [] in
  let unclean = ref [] in
  for i = 1 to setup_trials do
    match setup_trial ~dir:(Filename.concat root (Printf.sprintf "setup%d" i)) ~seed with
    | Ok dt -> setups := dt :: !setups
    | Error e -> errors := e :: !errors
  done;
  let mesh dir ~w0 ~w1 ~stop ~budget =
    fresh_dir dir;
    let cfg = { dir; seed; base = Unix.gettimeofday () +. lead; w0; w1; stop; traced; budget } in
    let spawn me gen = fork_worker (fun w -> worker cfg ~me ~gen ~ready_fd:w) in
    let t0 = Pb.mono () in
    let kids = Array.init n (fun me -> spawn me 0) in
    let ready = Array.for_all (fun (_, fd) -> wait_ready fd) kids in
    if not ready then errors := (dir ^ ": a worker failed to connect") :: !errors;
    (cfg, spawn, Array.map fst kids, if ready then Some (Pb.mono () -. t0) else None)
  in
  (* --- the window mesh: measure, then leave --- *)
  let wdir = Filename.concat root "run" in
  let warm = 1.0 in
  let w0 = warm and w1 = warm +. seconds in
  let _, _, wpids, setup = mesh wdir ~w0 ~w1 ~stop:(w1 +. quiesce) ~budget:None in
  let ready_w = setup <> None in
  Option.iter (fun dt -> setups := dt :: !setups) setup;
  Array.iteri
    (fun me pid ->
      unclean := waitpid_clean ~what:(Printf.sprintf "window worker %d" me) pid @ !unclean;
      (* Deleted before the kernel writes its dirty pages back, which
         would otherwise land in the middle of the restarts. *)
      rm_rf (store_dir wdir ~me))
    wpids;
  (* --- the recovery mesh: fill the stores, then kill and restart --- *)
  let rdir = Filename.concat root "recovery" in
  (* [stop] and the waits below only bound a hung run, within the 180 s
     a run may take: the last successors leave once they have delivered
     (see [worker]). *)
  let cfg, spawn, ospid, ready =
    mesh rdir ~w0:0.0 ~w1:0.0 ~stop:60.0 ~budget:(Some restart_chains)
  in
  let loop_now () = Unix.gettimeofday () -. cfg.base in
  let reached key gen me =
    match Hashtbl.find_opt (read_one rdir ~me ~gen).Pb.sums key with
    | Some v -> v > 0.0
    | None -> false
  in
  let kill_walls = Array.make (restarts + 1) nan in
  (* The parent runs [units] units while the mesh is quiet, just before
     each kill and once the last successors have left; a restart is
     timed at the speed of the units on either side of it. *)
  let quiet_units = Array.make (restarts + 2) nan in
  ignore (Pb.Calib.measure_cpu ());
  if ready = None then Array.iter (fun pid -> Unix.kill pid Sys.sigkill) ospid;
  for gen = 1 to if ready = None then 0 else restarts do
    (* The first incarnations have run out of chains; a successor has
       delivered. *)
    let key = if gen = 1 then "drained" else "first_delivery_wall" in
    let give_up = loop_now () +. if gen = 1 then 30.0 else 5.0 in
    while
      (not (List.for_all (reached key (gen - 1)) (List.init n Fun.id)))
      && loop_now () < give_up
    do
      Unix.sleepf 0.02
    done;
    Unix.sleepf quiesce;
    quiet_units.(gen) <- Pb.Calib.units units;
    Array.iter (fun pid -> Unix.kill pid Sys.sigkill) ospid;
    kill_walls.(gen) <- Unix.gettimeofday ();
    for me = 0 to n - 1 do
      ignore (waitpid_status ospid.(me));
      let pid, fd = spawn me gen in
      Unix.close fd;
      ospid.(me) <- pid
    done
  done;
  Array.iteri
    (fun me pid ->
      unclean :=
        waitpid_clean ~what:(Printf.sprintf "recovery worker %d gen %d" me restarts) pid
        @ !unclean)
    ospid;
  quiet_units.(restarts + 1) <- Pb.Calib.units units;
  (* --- collect --- *)
  let summary = Pb.new_summary () in
  let recoveries = ref [] and outages = ref [] and rss = ref 0.0 in
  let raw_recoveries = ref [] in
  let add one =
    Hashtbl.iter (fun k v -> Pb.add_sum summary k v) one.Pb.sums;
    Hashtbl.iter (fun k v -> Pb.add_max summary k v) one.Pb.maxes;
    Hashtbl.iter (fun k a -> Pb.merge_agg summary k a) one.Pb.spans
  in
  for me = 0 to n - 1 do
    add (read_one wdir ~me ~gen:0);
    for gen = 0 to restarts do
      let one = read_one rdir ~me ~gen in
      add one;
      rss := Float.max !rss (Pb.maxv one "rss_mb");
      if gen > 0 && Hashtbl.mem one.Pb.sums "recovery_s" then begin
        let f = Pb.Calib.factor [ quiet_units.(gen); quiet_units.(gen + 1) ] in
        raw_recoveries := Pb.sum one "recovery_s" :: !raw_recoveries;
        recoveries := (Pb.sum one "recovery_s" *. f) :: !recoveries;
        Option.iter
          (fun fd ->
            outages :=
              ((fd -. kill_walls.(gen)) *. f) :: !outages)
          (Hashtbl.find_opt one.Pb.sums "first_delivery_wall")
      end
    done
  done;
  let first, wdup = check_done wdir ~gens:0 in
  let _, rdup = check_done rdir ~gens:restarts in
  let in_window t = t >= w0 && t < w1 in
  let started = int_of_float (Pb.sum summary "started_window") in
  (* A chain's latency is scaled by the factor of the stretch it started
     in. *)
  let st = Array.of_list (if ready_w then stretches wdir else []) in
  let factor_at t0 =
    let i = ref 0 in
    while !i + 1 < Array.length st && st.(!i + 1).start <= t0 do
      incr i
    done;
    st.(!i).f
  in
  let latencies =
    if st = [||] then []
    else
      Hashtbl.fold
        (fun _ (t0, lat) acc -> if in_window t0 then (lat *. factor_at t0) :: acc else acc)
        first []
  in
  {
    setups = !setups;
    summary;
    stretches = Array.to_list st;
    latencies;
    raw_latencies =
      Hashtbl.fold (fun _ (t0, lat) acc -> if in_window t0 then lat :: acc else acc) first [];
    dup_errors = List.rev_append !errors (wdup @ rdup);
    dup_chains = List.length wdup + List.length rdup;
    recoveries = !recoveries;
    raw_recoveries = !raw_recoveries;
    outages = !outages;
    started;
    unclean = !unclean;
    kills_done = n * restarts;
    dirs = [ wdir; rdir ];
    peak_rss_mb = !rss;
  }
