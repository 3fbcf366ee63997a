(* Replay of the engine's stage order through each stage's public function,
   with a span around every call: clustering -> hierarchy gate and plan ->
   DME candidates -> selection -> LM routing (negotiation) -> plain MST
   routing -> first escape round -> escape feasibility bound. Nothing is
   instrumented inside the program; the replay's search counters are then
   checked against the engine's own per-stage counters, so a replay that
   drifts from [Pacor.Engine] fails the run. *)

open Pacor_geom
open Pacor_valve
module SS = Pacor_route.Search_stats

type t = {
  multi_clusters : int;
  dme_candidates : int;
  rounds : int;               (** negotiation rounds of the LM stage *)
  demoted : int;              (** LM clusters demoted to plain routing *)
  failed_first_round : int;   (** clusters the first escape round left pinless *)
  lm_search : SS.snapshot;
  plain_search : SS.snapshot;
  escape_search : SS.snapshot;
}

let workspace ~cells =
  let ws = Pacor_route.Workspace.create () in
  Pacor_route.Workspace.prepare ws ~cells;
  ws

let claims rs =
  List.fold_left (fun acc (r : Pacor.Routed.t) -> Point.Set.union acc r.claimed) Point.Set.empty rs

let fail fmt = Printf.ksprintf failwith fmt

let run tr ~config (problem : Pacor.Problem.t) =
  let grid = problem.grid in
  let cells = Pacor_grid.Routing_grid.cells grid in
  let ws = workspace ~cells in
  let stats = Pacor_route.Workspace.stats ws in
  let searched f =
    let s0 = SS.snapshot stats in
    let r = f () in
    (r, SS.diff (SS.snapshot stats) s0)
  in
  (* Valve and candidate-pin cells block internal routing, as in the engine. *)
  let valve_cells =
    List.fold_left (fun acc p -> Point.Set.add p acc)
      (Point.Set.of_list (List.map (fun (v : Valve.t) -> v.position) problem.valves))
      problem.pins
  in
  let clusters =
    match
      Span.record tr "clustering" (fun () -> Clustering.cluster ~seeds:problem.lm_clusters problem.valves)
    with
    | Ok p -> p.Clustering.clusters
    | Error e -> fail "replay: clustering failed: %s" e
  in
  Span.record tr "hier.plan" (fun () ->
    if Pacor.Config.hier_enabled config ~cells then
      ignore (Pacor.Hier.plan ~workspace:(workspace ~cells) ~config problem clusters));
  let lm = List.filter Cluster.needs_matching clusters in
  let usable p =
    Pacor_grid.Obstacle_map.free (Pacor_grid.Routing_grid.obstacles grid) p
    && not (Point.Set.mem p valve_cells)
  in
  let candidates =
    Span.record tr "lm.dme"
      ~args:(fun cs -> [ ("candidates", float_of_int (List.length (List.concat cs))) ])
      (fun () -> List.map (Pacor.Cluster_route.candidates_for ~config ~grid ~usable) lm)
  in
  Span.record tr "lm.select" (fun () ->
    match List.filter (( <> ) []) candidates with
    | [] -> ()
    | per_cluster ->
      let sel = { Pacor_select.Tree_select.lambda = config.Pacor.Config.lambda;
                  solver = config.Pacor.Config.solver } in
      (match Pacor_select.Tree_select.select ~config:sel per_cluster with
       | Ok _ -> ()
       | Error e -> fail "replay: selection failed: %s" e));
  let lm_out, lm_search =
    Span.record tr "lm.route" (fun () ->
      searched (fun () -> Pacor.Cluster_route.route ~workspace:ws ~config ~grid ~valve_cells clusters))
  in
  let next_id = ref (1 + List.fold_left (fun m (c : Cluster.t) -> max m c.id) 0 clusters) in
  let fresh_id () = incr next_id; !next_id - 1 in
  let plain_out, plain_search =
    Span.record tr "plain" (fun () ->
      searched (fun () ->
        Pacor.Plain_route.route_all ~workspace:ws ~grid ~valve_cells
          ~already_claimed:(claims lm_out.routed) ~fresh_id
          (List.filter (fun c -> not (Cluster.needs_matching c)) clusters @ lm_out.demoted)))
  in
  let routed = lm_out.routed @ plain_out.routed in
  let escape, escape_search =
    Span.record tr "escape" (fun () ->
      searched (fun () -> Pacor.Escape_stage.run ~workspace:ws ~grid ~pins:problem.pins routed))
  in
  let escape = match escape with Ok o -> o | Error e -> fail "replay: escape failed: %s" e in
  let bound =
    Span.record tr "escape.feasibility" (fun () ->
      Pacor_flow.Escape.feasibility_bound ~workspace:(workspace ~cells) ~grid
        ~claimed:(claims routed) ~pins:problem.pins
        (List.mapi
           (fun i r -> { Pacor_flow.Escape.cluster_idx = i; start_cells = Pacor.Routed.start_cells r })
           routed))
  in
  let failed_first_round = List.length escape.failed_clusters in
  if bound <> List.length routed - failed_first_round then
    fail "replay: escape routed %d clusters but the feasibility bound is %d"
      (List.length routed - failed_first_round) bound;
  { multi_clusters = List.length (List.filter (fun c -> Cluster.size c >= 2) clusters);
    dme_candidates = List.length (List.concat candidates);
    rounds = lm_out.iterations;
    demoted = List.length lm_out.demoted;
    failed_first_round;
    lm_search; plain_search; escape_search }

(* Differences between the replay and the engine run it shadows. Stage
   counters are only comparable when the engine kept its flat attempt. *)
let check (report : Pacor.Engine.report) r =
  let sol = report.solution in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if r.multi_clusters <> sol.initial_multi_clusters then
    err "clustering: replay %d multi-valve clusters, engine %d" r.multi_clusters
      sol.initial_multi_clusters;
  (match report.tier with
   | Flat_mode | Hier_race_flat | Hier_error_flat ->
     let stage label = List.assoc label sol.stage_search in
     let same label (mine : SS.snapshot) ~exact =
       let theirs = stage label in
       let ok =
         if exact then mine.searches = theirs.searches && mine.pops = theirs.pops
         else mine.pops <= theirs.pops
       in
       if not ok then
         err "%s: replay %d searches / %d pops, engine %d / %d" label mine.searches mine.pops
           theirs.searches theirs.pops
     in
     same "lm-routing" r.lm_search ~exact:true;
     same "plain-routing" r.plain_search ~exact:true;
     (* Without rip-up the engine's escape stage is exactly one round. *)
     same "escape" r.escape_search ~exact:(r.failed_first_round = 0)
   | Hier_identical | Hier_certified | Hier_race_won -> ());
  List.rev !errs
