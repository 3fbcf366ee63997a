(* PACOR benchmark: routes its workloads through the program's public entry
   points, checks every output, and prints the metrics as one JSON line.

     bench.exe --workload W --seed N --seconds S --trace 0|1
     bench.exe --selftest      every workload once at minimal size
     bench.exe --record        print the expected-result table
     bench.exe --finding S     known finding 1 (exact selection), S seconds cap
     bench.exe --finding-drop N --seed K
                               known finding 2 (dropped valve), N requests cap

   Workloads: chip1-route, scaled3-route (one [Pacor.Engine.run] per
   sample), lm-batch ([Pacor_par.Batch.run] over a pool of LM-heavy chips
   with one domain per core) and serve-trace (a [pacor serve] daemon
   process driven over stdio by a closed-loop client). With --trace 0 the
   run reports the end-to-end metrics, its times scaled to the host's
   reference pace (pace.ml); with --trace 1 it reports per-layer metrics
   from a traced run and writes a Chrome trace-event file. *)

module J = Pacor_serve.Json

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : Inst.size;
  out_dir : string;
  daemon : string;
  table : (string, Inst.expected) Hashtbl.t;
}

type outcome = {
  attempted : int;
  errors : string list;  (** one entry per failed operation *)
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : string list;  (** provenance lines printed before the result *)
}

let nproc () = Domain.recommended_domain_count ()
let fail fmt = Printf.ksprintf failwith fmt

(* Set-up repeats until [setup_seconds] have passed, at least three times;
   the median time of one set-up is reported and the last result kept. *)
let setup_seconds = 1.0

let timed_setup f =
  let t0 = Meter.now () in
  let rec go times last =
    if List.length times >= 3 && Meter.now () -. t0 >= setup_seconds then
      (Meter.median times, Option.get last)
    else begin
      let s = Meter.now () in
      let r = f last in
      go ((Meter.now () -. s) :: times) (Some r)
    end
  in
  go [] None

(* Repeat [f] until [seconds] of wall time have passed and at least
   [min_runs] calls were made. The route and batch runs read their peak
   RSS after the first operation, as one routing process would see it:
   later operations grow the heap with the garbage of earlier ones, so a
   run that fits more of them would read higher. *)
let for_seconds ?(min_runs = 1) seconds f =
  let t0 = Meter.now () in
  let rec go n =
    if n >= min_runs && Meter.now () -. t0 >= seconds then n else (f n; go (n + 1))
  in
  go 0

let expected a (inst : Inst.t) =
  match Hashtbl.find_opt a.table inst.key with
  | Some e -> e
  | None -> fail "no recorded result for %s (see --record)" inst.key

(* Validate a solution and compare it with its recorded result. *)
let verify a (inst : Inst.t) (sol : Pacor.Solution.t) =
  match Pacor.Solution.validate sol with
  | Error msgs -> Some (inst.key ^ ": invalid: " ^ String.concat "; " msgs)
  | Ok () ->
    let got = Inst.result_of sol and e = expected a inst in
    if got = e then None
    else
      Some (Printf.sprintf "%s: length %d matched %d routed %d, recorded %d %d %d" inst.key
              got.total_length got.matched got.routed e.total_length e.matched e.routed)

(* Quality of the routed chips, as the program reported them. *)
let quality (rs : Inst.expected list) =
  let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 rs) in
  [ ("total_length", sum (fun r -> r.Inst.total_length), "edges");
    ("matched_clusters", sum (fun r -> r.Inst.matched), "count");
    ("routed_valves", sum (fun r -> r.Inst.routed), "count") ]

let ms x = x *. 1000.0

(* ---------- instances ---------- *)

let route_instance a =
  Inst.of_spec
    (if a.workload = "chip1-route" then Inst.chip1_spec a.size else Inst.scaled_spec a.size)

(* The batch routes the whole pool, in seeded order. *)
let lm_instances a =
  List.init (Inst.lm_pool_size a.size) (fun i -> Inst.of_spec (Inst.lm_spec a.size i))
  |> Pacor_designs.Rng.shuffle (Inst.rng ~seed:a.seed "lm-order")

(* Fixed sessions; the rest of the pool, in seeded order, are the
   cache-miss routes. The seed also draws every edit's target. *)
let serve_instances a =
  let n = Inst.serve_sessions a.size in
  let chips = List.init (Inst.serve_pool a.size) (fun k -> Inst.of_spec (Inst.serve_spec k)) in
  ( Array.of_list (List.filteri (fun i _ -> i < n) chips),
    Array.of_list
      (Pacor_designs.Rng.shuffle (Inst.rng ~seed:a.seed "serve-misses")
         (List.filteri (fun i _ -> i >= n) chips)),
    Inst.of_spec Inst.starved_spec )

(* The serve-trace script: the sessions make three rounds of round-trip
   edits, and the script body is replayed for as long as the run lasts.
   The body sends each cache-miss chip equally often, so on every pass a
   miss chip was last sent a whole pool of misses earlier, more chips than
   the daemon's cache holds. *)
let serve_script a (sessions, misses, starved) =
  let cycles = Serve_load.round_cycles ~sessions:(Array.length sessions) ~rounds:3 in
  let sent = cycles * Serve_load.per_cycle 'M' in
  if sent mod Array.length misses <> 0 then
    fail "the serve script's %d misses do not cover the %d-chip pool evenly" sent
      (Array.length misses);
  Serve_load.generate ~edits:Round_trip ~seed:a.seed ~table:a.table ~sessions ~misses ~starved
    ~cycles

(* One pattern cycle over a workload's own chips, with edits that force no
   re-route: any re-routing edit of Chip1 risks known finding 1. *)
let short_script a sessions =
  Serve_load.generate ~edits:Loosen_only ~seed:a.seed ~table:a.table ~sessions ~misses:[||]
    ~starved:(Inst.of_spec Inst.starved_spec) ~cycles:1

(* ---------- end-to-end runs (tracing off) ---------- *)

(* The times an end-to-end run measured, each tagged with the pace epoch
   it was taken in (see pace.ml). *)
type timing = {
  setup : int * float;  (** median time of one set-up *)
  latency : (int * float) list;  (** one per operation *)
  busy : (int * float) list;  (** wall time spent in operations *)
  cpu : (int * float) list;  (** CPU time of the process that routes *)
  ops : int;
}

(* The time metrics, each time multiplied by its epoch's [factor]. *)
let time_metrics (t : timing) factor =
  let at (e, x) = x *. factor e in
  let sum l = Meter.sum (List.map at l) in
  [ ("setup_s", at t.setup, "s");
    ("latency_p50_ms", ms (Meter.median (List.map at t.latency)), "ms");
    ("throughput_per_s", float_of_int t.ops /. sum t.busy, "1/s");
    ("cpu_ms_per_op", ms (sum t.cpu /. float_of_int t.ops), "ms") ]

(* Each sample starts from a compacted heap, so it does not pay for the
   garbage of the samples before it. *)
let route_run a pace =
  let setup_epoch = Pace.epoch pace in
  let setup_s, inst = timed_setup (fun _ -> route_instance a) in
  let walls = ref [] and cpus = ref [] and errors = ref [] and peak = ref 0.0 in
  let result = ref [] in
  let samples =
    for_seconds a.seconds (fun n ->
      Pace.tick pace;
      Gc.compact ();
      let e = Pace.epoch pace in
      let c0 = Meter.cpu () and t0 = Meter.now () in
      let r = Pacor.Engine.run inst.problem in
      walls := (e, Meter.now () -. t0) :: !walls;
      cpus := (e, Meter.cpu () -. c0) :: !cpus;
      if n = 0 then peak := Meter.peak_rss_mb ();
      match r with
      | Error e -> errors := (inst.key ^ ": engine error: " ^ e.message) :: !errors
      | Ok sol ->
        result := [ Inst.result_of sol ];
        Option.iter (fun e -> errors := e :: !errors) (verify a inst sol))
  in
  ( { attempted = samples;
      errors = !errors;
      metrics = ("peak_rss_mb", !peak, "MB") :: quality !result;
      notes =
        [ Printf.sprintf "instance %s; %d Engine.run samples: %s s" inst.key samples
            (String.concat " " (List.rev_map (fun (_, w) -> Printf.sprintf "%.3f" w) !walls)) ] },
    { setup = (setup_epoch, setup_s); latency = !walls; busy = !walls; cpu = !cpus;
      ops = samples } )

(* One operation routes the whole pool, in the seeded order. *)
let batch_run a pace =
  let setup_epoch = Pace.epoch pace in
  let setup_s, insts = timed_setup (fun _ -> lm_instances a) in
  let jobs = List.map (fun (i : Inst.t) -> Pacor_par.Batch.job ~name:i.key i.problem) insts in
  let latencies = ref [] and walls = ref [] and cpus = ref [] and errors = ref [] in
  let routed = ref 0 and peak = ref 0.0 and results = ref [] in
  let batches =
    for_seconds a.seconds (fun n ->
      Pace.tick pace;
      results := [];
      let e = Pace.epoch pace in
      let c0 = Meter.cpu () and t0 = Meter.now () in
      let summary = Pacor_par.Batch.run ~jobs:(nproc ()) jobs in
      walls := (e, Meter.now () -. t0) :: !walls;
      cpus := (e, Meter.cpu () -. c0) :: !cpus;
      if n = 0 then peak := Meter.peak_rss_mb ();
      List.iter2
        (fun (inst : Inst.t) (it : Pacor_par.Batch.item) ->
           incr routed;
           latencies := (e, it.elapsed_s) :: !latencies;
           match it.solution with
           | Error e -> errors := (it.name ^ ": " ^ Pacor_par.Batch.error_to_string e) :: !errors
           | Ok sol ->
             results := Inst.result_of sol :: !results;
             Option.iter (fun e -> errors := e :: !errors) (verify a inst sol))
        insts summary.items)
  in
  ( { attempted = !routed;
      errors = !errors;
      metrics = ("peak_rss_mb", !peak, "MB") :: quality !results;
      notes =
        [ Printf.sprintf "%d batches of %d jobs on %d domains; latency_p50_ms is the median of %d \
                          per-instance times" batches (List.length jobs) (nproc ()) !routed ] },
    { setup = (setup_epoch, setup_s); latency = !latencies; busy = !walls; cpu = !cpus;
      ops = !routed } )

let serve_run a pace =
  let journal = Filename.concat a.out_dir "serve.journal" in
  let start previous =
    Option.iter (fun (_, d) -> Serve_load.stop d) previous;
    (* Every daemon starts from an empty journal: one left by an earlier
       run would make it re-route that run's sessions before its first
       ping. *)
    Out_channel.with_open_bin journal ignore;
    let insts = serve_instances a in
    let d = Serve_load.spawn ~exe:a.daemon ~journal in
    match Serve_load.parse_reply (Serve_load.call d {|{"op":"ping"}|}) with
    | Ok { ok = true; _ } -> (insts, d)
    | _ | (exception End_of_file) ->
      Serve_load.stop d;
      fail "daemon did not answer its first ping"
  in
  let setup_epoch = Pace.epoch pace in
  let setup_s, (insts, d) = timed_setup start in
  Fun.protect ~finally:(fun () -> Serve_load.stop d) (fun () ->
    (* The client prepares its script after set-up, untimed: its
       routability checks are the client's oracle, and how many draws they
       reject depends on the seed. *)
    let script = serve_script a insts in
    let rtts = ref [] and busy = ref [] and cpus = ref [] and errors = ref [] in
    let served = Hashtbl.create 128 in
    (* The daemon's CPU time is read whenever the epoch changes. *)
    let cpu_mark = ref (Meter.proc_cpu d.pid) in
    let close_epoch e =
      let c = Meter.proc_cpu d.pid in
      cpus := (e, c -. !cpu_mark) :: !cpus;
      cpu_mark := c
    in
    (* Every run makes at least one pass over the script, so each request
       kind appears and every chip of the pool is routed. *)
    let n =
      for_seconds ~min_runs:(Serve_load.length script) a.seconds (fun i ->
        let e0 = Pace.epoch pace in
        Pace.tick pace;
        let e = Pace.epoch pace in
        if e <> e0 then close_epoch e0;
        let r = Serve_load.nth script i in
        let s = Meter.now () in
        let line = Serve_load.call d r.line in
        rtts := (e, Meter.now () -. s) :: !rtts;
        (match Serve_load.parse_reply line with
         | Error e -> errors := e :: !errors
         | Ok reply ->
           (match r.expected with
            | Some (key, _) when reply.ok -> Hashtbl.replace served key (Serve_load.served reply)
            | _ -> ());
           Option.iter (fun e -> errors := e :: !errors) (Serve_load.verdict r reply line));
        busy := (e, Meter.now () -. s) :: !busy)
    in
    close_epoch (Pace.epoch pace);
    let wall = Meter.sum (List.map snd !busy) in
    ( { attempted = n;
        errors = !errors;
        metrics =
          ("peak_rss_mb", Meter.peak_rss_mb ~pid:(string_of_int d.pid) (), "MB")
          :: quality (List.of_seq (Hashtbl.to_seq_values served));
        notes =
          [ Printf.sprintf "%d requests in %.1f s, one closed-loop client, %d-request script; \
                            raw p99 %.3f ms" n wall (Serve_load.length script)
              (ms (Meter.quantile 0.99 (List.map snd !rtts))) ] },
      { setup = (setup_epoch, setup_s); latency = !rtts; busy = !busy; cpu = !cpus; ops = n } ))

(* ---------- traced run: per-layer metrics ---------- *)

type engine_ref = {
  inst : Inst.t;
  report : Pacor.Engine.report;
  wall : float;
  cpu : float;
  minor_words : float;
  major : int;
}

(* One untraced single-domain [Engine.run]: the reference the replay is
   checked against, and the source of the engine's counters. *)
let engine_reference a errors (inst : Inst.t) =
  let g0 = Gc.quick_stat () in
  let c0 = Meter.cpu () and t0 = Meter.now () in
  let r = Pacor.Engine.run_report inst.problem in
  let wall = Meter.now () -. t0 and cpu = Meter.cpu () -. c0 in
  let g1 = Gc.quick_stat () in
  match r with
  | Error e -> fail "%s: engine error: %s" inst.key e.message
  | Ok report ->
    Option.iter (fun e -> errors := e :: !errors) (verify a inst report.solution);
    { inst; report; wall; cpu; minor_words = g1.minor_words -. g0.minor_words;
      major = g1.major_collections - g0.major_collections }

let stage_time (r : engine_ref) label =
  Option.value ~default:0.0 (List.assoc_opt label r.report.solution.stage_seconds)

let unattributed (r : engine_ref) =
  r.wall -. Meter.sum (List.map snd r.report.solution.stage_seconds)

(* The replay's layer spans, in its stage order; none nests in another. *)
let layers =
  [ "clustering"; "hier.plan"; "lm.dme"; "lm.select"; "lm.route"; "plain"; "escape";
    "escape.feasibility" ]

(* One engine reference followed by one traced replay of the same chip,
   each from a compacted heap. *)
type pair = { eng : engine_ref; replay : Replay.t; layer_s : (string * float) list }

let chip_pairs a tr errors ~pairs (inst : Inst.t) =
  List.init pairs (fun _ ->
    Gc.compact ();
    let eng = engine_reference a errors inst in
    Gc.compact ();
    let replay =
      Span.record tr "engine.replay" (fun () ->
        Replay.run tr ~config:Pacor.Config.default inst.problem)
    in
    let parent = (Span.last tr).id in
    List.iter (fun e -> errors := (inst.key ^ ": replay: " ^ e) :: !errors)
      (Replay.check eng.report replay);
    { eng; replay; layer_s = List.map (fun l -> (l, Span.child_total tr ~parent l)) layers })

(* Median over a chip's pairs. *)
let med ps f = Meter.median (List.map f ps)
let layer l p = List.assoc l p.layer_s

(* Trace accounting, summed over a workload's chips: the replay's layers
   that repeat engine stages (clustering, lm.route, plain, escape; lm.dme
   and lm.select are repeated inside lm.route, hier.plan and
   escape.feasibility are extra work), plus the stage time the replay
   cannot reach through public functions (detour, rematch, and the escape
   rounds after the first where the first left clusters pinless), plus the
   engine's unattributed time, must give the [Engine.run] wall time within
   [accounting_tolerance] of it. Each figure is a chip's median over its
   pairs. The replay and its reference are separate runs, so the residue
   also holds their run-to-run difference. *)
let accounting_tolerance = 0.2

let accounting chips errors =
  let sum f = Meter.sum (List.map f chips) in
  let replayed =
    sum (fun ps ->
      med ps (fun p -> layer "clustering" p +. layer "lm.route" p +. layer "plain" p +. layer "escape" p))
  in
  let rip_up ps = (List.hd ps).replay.failed_first_round > 0 in
  let engine_only =
    sum (fun ps ->
      med ps (fun p ->
        stage_time p.eng "detour" +. stage_time p.eng "rematch"
        +. if rip_up ps then stage_time p.eng "escape" -. layer "escape" p else 0.0))
  in
  let unatt = sum (fun ps -> med ps (fun p -> unattributed p.eng)) in
  let wall = sum (fun ps -> med ps (fun p -> p.eng.wall)) in
  let residue = wall -. (replayed +. engine_only +. unatt) in
  let tiers =
    List.sort_uniq compare
      (List.map (fun ps -> Pacor.Engine.tier_name (List.hd ps).eng.report.tier) chips)
  in
  let line =
    Printf.sprintf
      "Engine.run %.3f s = replayed layers %.3f s + engine-only stages %.3f s \
       (escape rip-up rounds on %d of %d chips) + unattributed %.3f s + residue %.3f s (%.1f%%); \
       tier %s; medians of %d pairs per chip"
      wall replayed engine_only (List.length (List.filter rip_up chips)) (List.length chips) unatt
      residue (100.0 *. residue /. wall) (String.concat "," tiers)
      (List.length (List.hd chips))
  in
  if Float.abs residue > accounting_tolerance *. wall then
    errors := ("trace accounting: " ^ line) :: !errors;
  line

(* Per-layer sums over the chips of each chip's median. *)
let per_chip chips f = Meter.sum (List.map (fun ps -> med ps f) chips)
let first chips f = Meter.sum (List.map (fun ps -> f (List.hd ps)) chips)

let replay_metrics chips =
  let count f = first chips (fun p -> float_of_int (f p.replay)) in
  [ ("clustering.s", per_chip chips (layer "clustering"), "s");
    ("lm.dme.s", per_chip chips (layer "lm.dme"), "s");
    ("lm.dme.candidates", count (fun r -> r.Replay.dme_candidates), "count");
    ("lm.select.s", per_chip chips (layer "lm.select"), "s");
    ("lm.route.s", per_chip chips (layer "lm.route"), "s");
    ("lm.negotiation.rounds", count (fun r -> r.rounds), "count");
    ("lm.demoted", count (fun r -> r.demoted), "count");
    ("plain.s", per_chip chips (layer "plain"), "s");
    ("escape.s", per_chip chips (layer "escape"), "s");
    ("escape.feasibility.s", per_chip chips (layer "escape.feasibility"), "s");
    ("escape.failed_first_round", count (fun r -> r.failed_first_round), "count");
    ("hier.plan.s", per_chip chips (layer "hier.plan"), "s") ]

let stage_labels = [ "clustering"; "lm-routing"; "plain-routing"; "escape"; "detour"; "rematch" ]

let engine_metrics chips =
  let pops label p =
    match List.assoc_opt label p.eng.report.solution.stage_search with
    | Some (v : Pacor_route.Search_stats.snapshot) -> float_of_int v.pops
    | None -> 0.0
  in
  List.concat_map
    (fun l ->
       [ ("stage." ^ l ^ ".s", per_chip chips (fun p -> stage_time p.eng l), "s");
         ("stage." ^ l ^ ".pops", first chips (pops l), "count") ])
    stage_labels
  @ [ ("engine.unattributed_s", per_chip chips (fun p -> unattributed p.eng), "s");
      ("gc.minor_mwords", first chips (fun p -> p.eng.minor_words) /. 1e6, "Mwords");
      ("gc.major_collections", per_chip chips (fun p -> float_of_int p.eng.major), "count") ]

(* In-process replay of a serve script through [Server.handle], timing the
   protocol's parse and each op by kind. *)
let serve_replay tr script ~stop errors =
  let server = Pacor_serve.Server.create () in
  let ws = Pacor_serve.Server.take_workspace server in
  let miss = ref [] and hit = ref [] and delta = ref [] and all = ref [] in
  let routes = ref 0 and cached = ref 0 and deltas = ref 0 and incremental = ref 0 in
  let count = ref 0 in
  while not (stop !count) do
    incr count;
    let r = Serve_load.nth script (!count - 1) in
    ignore (Span.record tr "serve.parse" (fun () -> Pacor_serve.Protocol.parse_request r.line));
    let t0 = Meter.now () in
    let out =
      Span.record tr ("serve.handle." ^ Serve_load.kind_label r.kind) (fun () ->
        Pacor_serve.Server.handle ~workspace:ws server r.line)
    in
    let dt = Meter.now () -. t0 in
    all := dt :: !all;
    match Serve_load.check r out.line with
    | Error e -> errors := e :: !errors
    | Ok reply ->
      (match r.kind with
       | Bind | Hit | Miss ->
         incr routes;
         if reply.cached then (incr cached; hit := dt :: !hit) else miss := dt :: !miss
       | Delta _ when reply.ok ->
         incr deltas;
         if reply.incremental then incr incremental;
         delta := dt :: !delta
       | _ -> ())
  done;
  Pacor_serve.Server.return_workspace server ws;
  let us l = if l = [] then 0.0 else Meter.median l *. 1e6 in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  [ ("serve.parse_us", us (Span.durations tr "serve.parse"), "us");
    ("serve.handle.route_miss_us", us !miss, "us");
    ("serve.handle.route_hit_us", us !hit, "us");
    ("serve.handle.delta_us", us !delta, "us");
    ("serve.cache.hit_ratio", ratio !cached !routes, "ratio");
    ("serve.delta.incremental_ratio", ratio !incremental !deltas, "ratio");
    ("serve.p99_ms", ms (Meter.quantile 0.99 !all), "ms") ]

(* Encoding a routed answer and journalling a session bind, on this
   workload's own solutions and instance texts. *)
let encode_journal_metrics a tr refs =
  let encode =
    List.concat_map
      (fun r ->
         List.init 5 (fun _ ->
           let t0 = Meter.now () in
           Span.record tr "serve.encode" (fun () ->
             ignore (J.to_string (Pacor_serve.Protocol.solution_result r.report.solution)));
           Meter.now () -. t0))
      refs
  in
  let path = Filename.concat a.out_dir "layers.journal" in
  if Sys.file_exists path then Sys.remove path;
  let journal =
    match Pacor_serve.Journal.open_ ~path with Ok j -> j | Error e -> fail "journal: %s" e
  in
  let binds =
    List.concat_map
      (fun r ->
         List.init 5 (fun rev ->
           let t0 = Meter.now () in
           Span.record tr "serve.journal" (fun () ->
             Pacor_serve.Journal.record_bind journal ~session:r.inst.key ~revision:rev
               ~problem_text:r.inst.text);
           Meter.now () -. t0))
      refs
  in
  Pacor_serve.Journal.close journal;
  Sys.remove path;
  [ ("serve.encode_us", Meter.median encode *. 1e6, "us");
    ("serve.journal_us", Meter.median binds *. 1e6, "us") ]

(* Batch-layer figures. For lm-batch one traced [Batch.run_on] on a fresh
   pool; the route and serve workloads run no batch layer, so their
   figures describe the single-domain reference runs themselves. *)
let batch_metrics tr ~pool_jobs chips errors =
  let ref_wall = per_chip chips (fun p -> p.eng.wall) in
  let ref_cpu = per_chip chips (fun p -> p.eng.cpu) in
  match pool_jobs with
  | None ->
    [ ("batch.sequential_s", ref_wall, "s");
      ("batch.cpu_per_wall", ref_cpu /. ref_wall, "ratio");
      ("batch.overhead_x", 1.0, "x");
      ("sched.steals", 0.0, "count");
      ("sched.parks", 0.0, "count") ]
  | Some jobs ->
    let c0 = Meter.cpu () and t0 = Meter.now () in
    let summary, st =
      Span.record tr "batch.run" (fun () ->
        Pacor_par.Pool.with_pool ~jobs:(nproc ()) (fun pool ->
          let s = Pacor_par.Batch.run_on pool jobs in
          (s, Pacor_par.Pool.sched_stats pool)))
    in
    let wall = Meter.now () -. t0 and cpu = Meter.cpu () -. c0 in
    List.iter
      (fun (it : Pacor_par.Batch.item) ->
         match it.solution with
         | Error e -> errors := (it.name ^ ": " ^ Pacor_par.Batch.error_to_string e) :: !errors
         | Ok _ -> ())
      summary.items;
    [ ("batch.sequential_s", summary.sequential_s, "s");
      ("batch.cpu_per_wall", cpu /. wall, "ratio");
      ("batch.overhead_x", cpu /. ref_cpu, "x");
      ("sched.steals", float_of_int st.Pacor_sched.Sched.steals, "count");
      ("sched.parks", float_of_int st.Pacor_sched.Sched.parks, "count") ]

let traced_run a =
  let tr = Span.create () in
  let errors = ref [] in
  let t_start = Meter.now () in
  (* Each workload's engine chips, reference/replay pairs per chip, its
     serve script and when to stop replaying it, and its batch. *)
  let one_pass script n = n >= Serve_load.length script in
  let insts, pairs, script, stop, pool_jobs =
    match a.workload with
    | "chip1-route" | "scaled3-route" ->
      let inst = route_instance a in
      let script = short_script a [| inst |] in
      ([ inst ], 3, script, one_pass script, None)
    | "lm-batch" ->
      let insts = lm_instances a in
      let script = short_script a (Array.of_list (List.filteri (fun i _ -> i < 2) insts)) in
      ( insts, 1, script, one_pass script,
        Some (List.map (fun (i : Inst.t) -> Pacor_par.Batch.job ~name:i.key i.problem) insts) )
    | _ ->
      let ((sessions, _, _) as s) = serve_instances a in
      let script = serve_script a s in
      let t0 = Meter.now () in
      ( Array.to_list sessions, 1, script,
        (fun n -> one_pass script n && Meter.now () -. t0 >= a.seconds),
        None )
  in
  let chips = List.map (chip_pairs a tr errors ~pairs) insts in
  let residue = accounting chips errors in
  let refs = List.map (fun ps -> (List.hd ps).eng) chips in
  let batch = batch_metrics tr ~pool_jobs chips errors in
  let serve = serve_replay tr script ~stop errors in
  let encode_journal = encode_journal_metrics a tr refs in
  let metrics = replay_metrics chips @ engine_metrics chips @ batch @ serve @ encode_journal in
  let wall = Meter.now () -. t_start in
  let spans = List.length (Span.spans tr) in
  let path = Filename.concat a.out_dir (Printf.sprintf "trace-%s.json" a.workload) in
  (match Span.write tr ~path with Ok _ -> () | Error e -> errors := e :: !errors);
  { attempted = List.length refs;
    errors = !errors;
    metrics =
      metrics
      @ [ ("trace.spans", float_of_int spans, "count");
          ("trace.overhead_ratio", float_of_int spans *. Span.cost_per_span () /. wall, "ratio") ];
    notes = [ "trace written to " ^ path; residue ] }

(* ---------- command line ---------- *)

let workloads = [ "chip1-route"; "scaled3-route"; "lm-batch"; "serve-trace" ]

let run a pace =
  if not (List.mem a.workload workloads) then
    fail "unknown workload %S (one of: %s)" a.workload (String.concat ", " workloads);
  if a.trace then traced_run a
  else
    begin
      Pace.restart pace;
      let o, timing =
        match a.workload with
        | "chip1-route" | "scaled3-route" -> route_run a pace
        | "lm-batch" -> batch_run a pace
        | _ -> serve_run a pace
      in
      Pace.measure pace;
      (* Times at the reference pace of the host; the raw figures stay on a
         provenance line. *)
      let factors = Pace.factors pace in
      let raw = time_metrics timing (fun _ -> 1.0) in
      { o with
        metrics = time_metrics timing (fun e -> factors.(e)) @ o.metrics;
        notes =
          o.notes
          @ [ Pace.note pace;
              "raw (unscaled): "
              ^ String.concat ", "
                  (List.map (fun (n, v, u) -> Printf.sprintf "%s %.6g %s" n v u) raw) ] }
    end

let result_json (o : outcome) =
  J.Obj
    [ ("correct", J.Bool (o.errors = []));
      ("attempted", J.Int o.attempted);
      ("failed", J.Int (List.length o.errors));
      ("metrics",
       J.Obj (List.map (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
                o.metrics)) ]

let provenance a (o : outcome) =
  Printf.printf "# workload=%s seed=%d trace=%b nproc=%d ocaml=%s seconds=%g\n" a.workload a.seed
    a.trace (nproc ()) Sys.ocaml_version a.seconds;
  List.iter (Printf.printf "# %s\n") o.notes;
  List.iter (Printf.printf "# FAILED: %s\n") o.errors

(* Declared metric names and units, from BENCHMARK.json. *)
let declared ~trace =
  match J.of_string (Meter.read_file "BENCHMARK.json") with
  | Error e -> fail "BENCHMARK.json: %s" e
  | Ok j ->
    let key = if trace then "per_layer" else "end_to_end" in
    List.map
      (fun m ->
         match Option.bind (J.member "name" m) J.string_opt, Option.bind (J.member "unit" m) J.string_opt with
         | Some n, Some u -> (n, u)
         | _ -> fail "BENCHMARK.json: malformed %s entry" key)
      (Option.value ~default:[] (Option.bind (J.member key j) J.list_opt))

let conforms ~trace (o : outcome) =
  let want = declared ~trace in
  let have = List.map (fun (n, _, u) -> (n, u)) o.metrics in
  List.filter_map
    (fun (n, u) ->
       match List.assoc_opt n have with
       | None -> Some ("missing metric " ^ n)
       | Some u' when u' <> u -> Some (Printf.sprintf "%s in %s, declared %s" n u' u)
       | Some _ -> None)
    want
  @ List.filter_map
      (fun (n, v, _) ->
         if not (List.mem_assoc n want) then Some ("undeclared metric " ^ n)
         else if Float.is_finite v then None
         else Some (Printf.sprintf "%s is not finite" n))
      o.metrics

let selftest a pace =
  let bad = ref 0 in
  List.iter
    (fun workload ->
       List.iter
         (fun trace ->
            let a = { a with workload; trace; size = Mini; seconds = 0.0 } in
            let o = run a pace in
            let problems = o.errors @ conforms ~trace o in
            Printf.printf "selftest %-14s trace=%d: %d ops, %s\n%!" workload (Bool.to_int trace)
              o.attempted (if problems = [] then "ok" else String.concat "; " problems);
            if problems <> [] then incr bad)
         [ false; true ])
    workloads;
  !bad = 0

let record () =
  List.iter
    (fun spec ->
       let inst = Inst.of_spec spec in
       let t0 = Meter.now () in
       match Pacor.Engine.run inst.problem with
       | Error e -> fail "%s: engine error %s" inst.key e.message
       | Ok sol ->
         let r = Inst.result_of sol in
         (match Pacor.Solution.validate sol with
          | Ok () -> ()
          | Error m -> Printf.eprintf "%s: INVALID: %s\n%!" inst.key (String.concat "; " m));
         Printf.printf "%s\t%d\t%d\t%d\n%!" inst.key r.total_length r.matched r.routed;
         Printf.eprintf "%s %.2fs\n%!" inst.key (Meter.now () -. t0))
    (Inst.all_specs ())

(* Known open finding, outside the timed set: the default exact selection
   on a 150x150 chip with 24 length-matched clusters of 4-8 valves. Greedy
   selection routes it in-process; the exact run happens in a forked child
   that is killed after [cap] seconds. *)
let selection_finding cap =
  let spec = Inst.blowup_spec in
  let problem = (Inst.of_spec spec).problem in
  let timed config =
    let t0 = Meter.now () in
    match Pacor.Engine.run ~config problem with
    | Ok sol -> Printf.sprintf "%.2f s, %s" (Meter.now () -. t0)
                  (if Result.is_ok (Pacor.Solution.validate sol) then "valid" else "invalid")
    | Error e -> "engine error: " ^ e.message
  in
  let solver s = { Pacor.Config.default with solver = s } in
  Printf.printf "%s: %dx%d, %d LM clusters of sizes %s, delta %d\n%!" spec.name spec.width
    spec.height (List.length spec.lm_cluster_sizes)
    (String.concat "," (List.map string_of_int spec.lm_cluster_sizes)) spec.delta;
  Printf.printf "greedy selection: %s\n%!" (timed (solver Pacor_select.Tree_select.Greedy));
  match Unix.fork () with
  | 0 -> print_string ("exact selection: " ^ timed (solver Pacor_select.Tree_select.Exact) ^ "\n"); exit 0
  | pid ->
    let t0 = Meter.now () in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Meter.now () -. t0 < cap -> Unix.sleepf 0.1; wait ()
      | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Printf.printf "exact selection: not finished after %.0f s (killed)\n" cap
      | _ -> ()
    in
    wait ()

(* Known open finding 2, outside the timed set: an in-process serve replay
   whose edits accumulate without the routability filter, on eight small
   session chips, for at most [cap] requests. It stops at the first edit
   answer whose session valve count differs from the edited chip's, the
   finding, and otherwise counts the answers that the filter would have
   avoided: edited sessions that route incompletely (and so do not
   validate) and answers whose ok flag differs from the script's. *)
let drop_finding ~seed cap =
  let sessions = Array.init 8 (fun k -> Inst.of_spec (Inst.drop_spec k)) in
  let table = Hashtbl.create 8 in
  Array.iter
    (fun (inst : Inst.t) ->
       match Pacor.Engine.run inst.problem with
       | Ok sol -> Hashtbl.replace table inst.key (Inst.result_of sol)
       | Error e -> fail "%s: engine error %s" inst.key e.message)
    sessions;
  let script =
    Serve_load.generate ~edits:Unfiltered ~seed ~table ~sessions ~misses:[||]
      ~starved:(Inst.of_spec Inst.starved_spec)
      ~cycles:(max 1 (cap / String.length Serve_load.pattern))
  in
  let server = Pacor_serve.Server.create () in
  let ws = Pacor_serve.Server.take_workspace server in
  let incomplete = ref 0 and mismatched = ref 0 in
  let t0 = Meter.now () in
  let rec go i =
    if i >= Serve_load.length script then
      Printf.printf "no valve dropped in %d requests (%.1f s); %d edit answers routed \
                     incompletely, %d answers had another ok flag than the script\n"
        i (Meter.now () -. t0) !incomplete !mismatched
    else begin
      let r = Serve_load.nth script i in
      let out = Pacor_serve.Server.handle ~workspace:ws server r.line in
      match Serve_load.parse_reply out.line with
      | Ok reply when reply.ok && r.valves <> None
                      && Some (Serve_load.result_int reply "valves") <> r.valves ->
        Printf.printf "VALVE DROPPED at request %d (%.1f s), after %d incomplete edit answers: \
                       %s answered %s\n"
          (i + 1) (Meter.now () -. t0) !incomplete r.line out.line
      | reply ->
        (match reply with
         | Ok reply when reply.ok <> r.expect_ok -> incr mismatched
         | Ok reply when reply.ok && r.valves <> None
                         && Option.bind reply.result (Pacor_serve.Json.member "valid")
                            <> Some (Pacor_serve.Json.Bool true) -> incr incomplete
         | _ -> ());
        go (i + 1)
    end
  in
  Printf.printf "seed %d: 8 sessions (%s), unfiltered edits, at most %d requests\n%!" seed
    (String.concat " " (Array.to_list (Array.map (fun (i : Inst.t) ->
       let g = i.problem.grid in
       Printf.sprintf "%dx%d" (Pacor_grid.Routing_grid.width g) (Pacor_grid.Routing_grid.height g))
       sessions)))
    (Serve_load.length script);
  go 0;
  Pacor_serve.Server.return_workspace server ws

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out_dir = ref ".perfbench-out" and daemon = ref "_build/default/bin/pacor_cli.exe" in
  let expected = ref "perfbench/expected.tsv" and mode = ref `Run in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--out", Arg.Set_string out_dir, "DIR output directory (traces, journals)");
      ("--daemon", Arg.Set_string daemon, "EXE pacor CLI used for serve-trace");
      ("--expected", Arg.Set_string expected, "FILE recorded results");
      ("--selftest", Arg.Unit (fun () -> mode := `Selftest), " every workload once, minimal size");
      ("--record", Arg.Unit (fun () -> mode := `Record), " print the expected-result table");
      ("--finding", Arg.Float (fun cap -> mode := `Finding cap),
       "S reproduce the exact-selection blow-up, giving it S seconds");
      ("--finding-drop", Arg.Int (fun cap -> mode := `Drop cap),
       "N search for the dropped-valve answer with unfiltered edits, at most N requests") ]
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  match !mode with
  | `Record -> record ()
  | `Finding cap -> selection_finding cap
  | `Drop cap -> drop_finding ~seed:!seed cap
  | (`Run | `Selftest) as m ->
    if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
    let a =
      { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; size = Full;
        out_dir = !out_dir; daemon = !daemon; table = Inst.load_expected !expected }
    in
    (* The pace kernel's process is forked before any domain exists. *)
    Pace.with_pace (fun pace ->
      if m = `Selftest then selftest a pace
      else begin
        let o = run a pace in
        let o = { o with errors = o.errors @ conforms ~trace:a.trace o } in
        provenance a o;
        print_endline (J.to_string (result_json o));
        o.errors = []
      end)
    |> fun ok -> exit (if ok then 0 else 1)
