(* Shared pieces of the benchmark: clocks, the sample percentile, span
   histograms, the in-memory span recorder, per-process resource probes
   and the JSON records workers hand their results to the parent in. *)

let mono () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* CPU seconds (user and system) of the calling process. Sys.time reads
   getrusage, which on Linux counts the running slice to the microsecond;
   the clock ticks of Unix.times and /proc/self/schedstat's figure lag
   by up to a scheduler tick. *)
let cpu_s () = Sys.time ()

(* Peak resident set of the calling process, from /proc (kB -> MB). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> 0.0
      in
      find ())

(* Restart the peak-RSS count of the calling process (Linux clear_refs),
   so a measurement does not inherit the peak of earlier work. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

(* --- percentiles -------------------------------------------------------

   The benchmark's one definition for samples: linear interpolation
   between the closest ranks of the sorted sample (numpy's default, R
   type 7). *)

let percentile p xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    let h = p *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median xs = percentile 0.5 xs

(* --- host-speed calibration ----------------------------------------------

   On a shared VM the host's speed drifts by up to 2x within seconds, as
   neighbours contend for caches and memory bandwidth, and every timing
   drifts with it. So each timing is taken next to a run of a fixed
   reference unit, the benchmark's own code and not the program's, and
   is reported at the speed at which that unit takes [unit_s]: a duration
   d measured where the unit took u is reported as d *. unit_s /. u. A
   change to the program moves a reported figure as much as the raw one;
   a drift of the host moves it far less.

   The unit does what the simulator's hot path does: it builds
   short-lived 32-entry arrays on the minor heap and merges them with
   vectors read from, and written back to, random rows of a 4 MB table.
   Of the units tried, this one followed the simulator's drift best (a
   unit that does not allocate followed it far worse). The table lies
   outside the OCaml heap and nothing the unit allocates survives a
   minor collection, so it adds no work for the major collector. A unit
   starts on an empty minor heap and allocates less than fits in it
   (about 230k words), so no collection runs inside a unit: a major
   slice there would do work the program owes. *)

module Calib = struct
  let width = 32
  let rows = 1 lsl 14
  let iters = 3000

  (* The unit's time on the reference host (2-vCPU Xeon VM) when the
     host is not contended. *)
  let unit_s = 0.0033

  let table =
    lazy
      (let t = Bigarray.(Array1.create int c_layout (rows * width)) in
       Bigarray.Array1.fill t 0;
       t)

  let state = ref 88172645463325

  let run_unit () =
    let t = Lazy.force table in
    let acc = ref 0 in
    for _ = 1 to iters do
      let x = ((!state * 0x5851F42D4C957F2D) + 0x14057B7EF767814F) land max_int in
      state := x;
      let row = ((x lsr 20) land (rows - 1)) * width in
      let m = Array.init width (fun i -> (i * x) land 1023) in
      let v =
        Array.init width (fun i ->
            let a = Bigarray.Array1.unsafe_get t (row + i) and b = Array.unsafe_get m i in
            if a > b then a else b + 1)
      in
      Array.iteri (fun i y -> Bigarray.Array1.unsafe_set t (row + i) (y land 1023)) v;
      acc := !acc + v.(x land (width - 1))
    done;
    !acc

  (* Wall seconds of one unit. The first call in a process also faults
     the table in; make it before timing anything. *)
  let measure () =
    Gc.minor ();
    let t0 = mono () in
    ignore (Sys.opaque_identity (run_unit ()));
    mono () -. t0

  (* CPU seconds of one unit, for processes that share their CPU with
     each other: a unit preempted by a peer is not charged for the
     peer's time. *)
  let measure_cpu () =
    Gc.minor ();
    let c0 = cpu_s () in
    ignore (Sys.opaque_identity (run_unit ()));
    cpu_s () -. c0

  (* The median CPU time of [k] units run back to back. *)
  let units k = median (List.init k (fun _ -> measure_cpu ()))

  (* The factor that turns durations measured where units took [us]
     into durations at the reference speed. *)
  let factor us = unit_s /. median us
end

(* --- span duration histograms -------------------------------------------

   Span durations of every incarnation are merged in the parent, so
   per-layer tail latencies use one fixed log grid for every histogram:
   20 buckets per decade from 100 ns to 100 s. *)

module Histogram = Optimist_util.Stats.Histogram

let hist_bounds = Array.init 180 (fun i -> 1e-7 *. (10. ** (float_of_int (i + 1) /. 20.)))
let new_hist () = Histogram.create ~buckets:hist_bounds ()

(* --- span recorder ------------------------------------------------------

   Tracing wraps the records the benchmark itself builds (transport,
   runtime, stable hooks, app) so every call into a layer opens a span.
   Each span has a name, start, end, parent span and chain id; self time
   is its duration minus what its children cover, computed as spans
   close. Aggregates are kept per name; raw spans are kept in memory
   (bounded) and written out when the process finishes. *)

module Rec = struct
  type agg = {
    mutable calls : int;
    mutable total : float;
    mutable self : float;
    mutable hist : Histogram.t;
  }

  let on = ref false
  let aggs : (string, agg) Hashtbl.t = Hashtbl.create 32
  let chain = ref (-1)

  let max_depth = 64
  let st_name = Array.make max_depth ""
  let st_start = Array.make max_depth 0.0
  let st_child = Array.make max_depth 0.0
  let st_id = Array.make max_depth 0
  let depth = ref 0
  let next_id = ref 0

  let raw_cap = 200_000
  let r_id = Array.make raw_cap 0
  let r_name = Array.make raw_cap ""
  let r_start = Array.make raw_cap 0.0
  let r_end = Array.make raw_cap 0.0
  let r_parent = Array.make raw_cap 0
  let r_chain = Array.make raw_cap 0
  let nraw = ref 0

  let reset () =
    Hashtbl.reset aggs;
    depth := 0;
    next_id := 0;
    nraw := 0;
    chain := -1

  let agg name =
    match Hashtbl.find_opt aggs name with
    | Some a -> a
    | None ->
        let a =
          { calls = 0; total = 0.0; self = 0.0; hist = new_hist () }
        in
        Hashtbl.add aggs name a;
        a

  let close stop =
    decr depth;
    let k = !depth in
    let d = Float.max 0.0 (stop -. st_start.(k)) in
    let a = agg st_name.(k) in
    a.calls <- a.calls + 1;
    a.total <- a.total +. d;
    a.self <- a.self +. Float.max 0.0 (d -. st_child.(k));
    Histogram.add a.hist d;
    if k > 0 then st_child.(k - 1) <- st_child.(k - 1) +. d;
    if !nraw < raw_cap then begin
      let i = !nraw in
      r_id.(i) <- st_id.(k);
      r_name.(i) <- st_name.(k);
      r_start.(i) <- st_start.(k);
      r_end.(i) <- stop;
      r_parent.(i) <- (if k > 0 then st_id.(k - 1) else -1);
      r_chain.(i) <- !chain;
      nraw := i + 1
    end

  let span name f =
    if not !on || !depth >= max_depth then f ()
    else begin
      let k = !depth in
      st_name.(k) <- name;
      st_id.(k) <- !next_id;
      incr next_id;
      st_child.(k) <- 0.0;
      depth := k + 1;
      st_start.(k) <- mono ();
      match f () with
      | r ->
          close (mono ());
          r
      | exception e ->
          close (mono ());
          raise e
    end

  (* Raw spans as tab-separated lines, in the order they closed; parent
     -1 is a top-level span, chain -1 a span outside any chain. *)
  let dump path =
    let oc = open_out path in
    output_string oc "id\tname\tstart_s\tend_s\tparent\tchain\n";
    for i = 0 to !nraw - 1 do
      Printf.fprintf oc "%d\t%s\t%.9f\t%.9f\t%d\t%d\n" r_id.(i) r_name.(i)
        r_start.(i) r_end.(i) r_parent.(i) r_chain.(i)
    done;
    close_out oc
end

(* --- result records ------------------------------------------------------

   Workers hand results to the parent as one JSON object: "sums" (numbers
   to add up over incarnations), "maxes" (numbers to take the maximum of)
   and "spans" (per-name span aggregates with their histogram counts on
   the [hist_bounds] grid). *)

module Json = Optimist_obs.Json

type summary = {
  sums : (string, float) Hashtbl.t;
  maxes : (string, float) Hashtbl.t;
  spans : (string, Rec.agg) Hashtbl.t;
}

let new_summary () =
  { sums = Hashtbl.create 32; maxes = Hashtbl.create 8; spans = Hashtbl.create 32 }

let add_sum s k v =
  Hashtbl.replace s.sums k (v +. Option.value ~default:0.0 (Hashtbl.find_opt s.sums k))

let add_max s k v =
  Hashtbl.replace s.maxes k
    (Float.max v (Option.value ~default:0.0 (Hashtbl.find_opt s.maxes k)))

let sum s k = Option.value ~default:0.0 (Hashtbl.find_opt s.sums k)
let maxv s k = Option.value ~default:0.0 (Hashtbl.find_opt s.maxes k)

let empty_agg () = { Rec.calls = 0; total = 0.0; self = 0.0; hist = new_hist () }

let merge_agg s name (a : Rec.agg) =
  let into =
    match Hashtbl.find_opt s.spans name with
    | Some x -> x
    | None ->
        let x = empty_agg () in
        Hashtbl.add s.spans name x;
        x
  in
  into.calls <- into.calls + a.calls;
  into.total <- into.total +. a.total;
  into.self <- into.self +. a.self;
  into.hist <- Histogram.merge into.hist a.hist

let span_of s name =
  match Hashtbl.find_opt s.spans name with Some a -> a | None -> empty_agg ()

(* Non-finite values (a time never reached) are left out. *)
let write_records path ~sums ~maxes =
  let nums l =
    Json.Obj (List.filter_map (fun (k, v) -> if Float.is_finite v then Some (k, Json.Float v) else None) l)
  in
  let span (name, (a : Rec.agg)) =
    ( name,
      Json.Obj
        [
          ("calls", Json.Int a.calls);
          ("total", Json.Float a.total);
          ("self", Json.Float a.self);
          ("hist", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) (Histogram.counts a.hist))));
        ] )
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("sums", nums sums);
            ("maxes", nums maxes);
            ("spans", Json.Obj (List.map span (List.of_seq (Hashtbl.to_seq Rec.aggs))));
          ]));
  close_out oc;
  Sys.rename tmp path

let fields = function Some (Json.Obj l) -> l | _ -> []
let num j k = Option.bind (Json.mem k j) Json.to_float

(* A span histogram rebuilt from its bucket counts: each count is added
   at its bucket's upper bound (the overflow bucket's at twice the last
   bound), which lands it in the same bucket. *)
let hist_of_counts counts =
  let h = new_hist () in
  let last = Array.length hist_bounds in
  List.iteri
    (fun i c ->
      let x = if i < last then hist_bounds.(i) else 2. *. hist_bounds.(last - 1) in
      for _ = 1 to Option.value ~default:0 (Json.to_int c) do
        Histogram.add h x
      done)
    counts;
  h

(* Fold a worker's record file into [s]; a missing file adds nothing. *)
let read_records s path =
  if Sys.file_exists path then begin
    let text = In_channel.with_open_bin path In_channel.input_all in
    match Json.of_string text with
    | Error e -> failwith (Printf.sprintf "%s: %s" path e)
    | Ok j ->
        let each key f =
          List.iter (fun (k, v) -> Option.iter (f k) (Json.to_float v)) (fields (Json.mem key j))
        in
        each "sums" (add_sum s);
        each "maxes" (add_max s);
        List.iter
          (fun (name, a) ->
            let n k = Option.value ~default:0.0 (num a k) in
            merge_agg s name
              {
                Rec.calls = int_of_float (n "calls");
                total = n "total";
                self = n "self";
                hist =
                  hist_of_counts
                    (Option.value ~default:[] (Option.bind (Json.mem "hist" a) Json.list_value));
              })
          (fields (Json.mem "spans" j))
  end

(* --- host record -------------------------------------------------------- *)

let read_first_line path =
  try
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> String.trim (input_line ic))
  with Sys_error _ | End_of_file -> "unknown"

let command_line cmd =
  try
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let l = try String.trim (input_line ic) with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    l
  with Unix.Unix_error _ -> "unknown"

(* The facts that bound the numbers: only results with the same host
   record are comparable. The commit comes from [BENCH_COMMIT] (the
   checkout need not be a git repository). *)
let host_facts () =
  [
    ("nproc", command_line "nproc");
    ("kernel", read_first_line "/proc/sys/kernel/osrelease");
    ("ocaml", Sys.ocaml_version);
    ("commit", Option.value ~default:"unknown" (Sys.getenv_opt "BENCH_COMMIT"));
    ("max_dgram_qlen", read_first_line "/proc/sys/net/unix/max_dgram_qlen");
  ]

(* --- one measured run of a workload ------------------------------------ *)

type outcome = {
  e2e : (string * float * string) list;  (** name, value, unit *)
  attempted : int;  (** chains started *)
  failed : int;
      (** chains whose outcome a gate rejected; a chain lost to a crash or
          a dropped datagram is not failed but counts against
          completed_ratio *)
  gates : (string * string) list;  (** failed correctness gates: name, detail *)
  info : (string * string) list;  (** sample counts and failure breakdown *)
}
