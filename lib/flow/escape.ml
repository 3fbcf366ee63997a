open Pacor_geom
open Pacor_grid

type request = {
  cluster_idx : int;
  start_cells : Point.t list;
}

type routed = {
  idx : int;
  start_cell : Point.t;
  pin : Point.t;
  path : Path.t;
}

type outcome = {
  routed : routed list;
  failed : int list;
  total_length : int;
}

(* Cell roles in the flow network, packed two bits per cell. Precedence
   (highest wins): blocked > pin > start > claimed > boundary > ordinary. *)
let role_excluded = 0  (* obstacle, non-pin boundary, foreign claim *)
let role_ordinary = 1  (* free interior transit cell *)
let role_pin = 2       (* candidate control pin: sink only *)
let role_start = 3     (* claimed cell usable as some cluster's source *)

(* Dense role layer indexed by [Routing_grid.index]: the
   O(log n)-per-probe [Point.Set.mem] lookups of the old builder become
   one two-bit read per cell and per neighbour. The overlay order below
   realises the precedence: later writes win, and the pin/start writes
   are guarded by [free_i] so a blocked cell stays excluded. The backing
   bytes come from the workspace scratch pool when one is supplied, so
   repeated escape solves on a warm workspace allocate nothing.

   [corridor] (the hierarchical engine's union-of-request-corridors mask)
   demotes ordinary transit cells outside the mask to excluded; starts and
   pins are exempt, mirroring the detailed searchers' source/target
   exemption. The predicate is consulted only on otherwise-usable interior
   cells, so the caller can count every [false] as a genuine clip. *)
let compute_roles ?workspace ?corridor ~grid ~claimed ~pins requests =
  let cells = Routing_grid.cells grid in
  let roles =
    match workspace with
    | Some ws ->
      Packed_roles.wrap ~len:cells
        (Pacor_route.Workspace.scratch_bytes ws ~len:(Packed_roles.bytes_needed cells))
    | None -> Packed_roles.create cells
  in
  Routing_grid.fill_interior_free_packed grid roles;
  (match corridor with
   | None -> ()
   | Some allow ->
     for i = 0 to cells - 1 do
       if Packed_roles.get roles i = role_ordinary && not (allow i) then
         Packed_roles.set roles i role_excluded
     done);
  Point.Set.iter
    (fun p ->
       if Routing_grid.in_bounds grid p then
         Packed_roles.set roles (Routing_grid.index grid p) role_excluded)
    claimed;
  List.iter
    (fun r ->
       List.iter
         (fun p ->
            if Routing_grid.in_bounds grid p then begin
              let i = Routing_grid.index grid p in
              if Routing_grid.free_i grid i then Packed_roles.set roles i role_start
            end)
         r.start_cells)
    requests;
  List.iter
    (fun p ->
       if Routing_grid.in_bounds grid p then begin
         let i = Routing_grid.index grid p in
         if Routing_grid.free_i grid i then Packed_roles.set roles i role_pin
       end)
    pins;
  roles

(* Shared network layout: node-split grid (cell i -> nodes 2i / 2i+1) plus
   one node per request and a super source/sink. [emit] is called once per
   arc with (src, dst, cost), in a deterministic order — row-major cells,
   neighbours in [Routing_grid.iter_neighbours4] order, then request arcs
   in input order — which both the two-pass CSR builder and the
   decomposition tie-break rely on. *)
let emit_network ~grid ~roles requests ~emit =
  let cells = Routing_grid.cells grid in
  let nreq = List.length requests in
  let source = (2 * cells) + nreq and sink = (2 * cells) + nreq + 1 in
  for i = 0 to cells - 1 do
    let role = Packed_roles.get roles i in
    if role <> role_excluded then begin
      let out_node = (2 * i) + 1 in
      if role = role_pin then emit (2 * i) sink 0
      else begin
        if role = role_ordinary then emit (2 * i) out_node 0;
        Routing_grid.iter_neighbours4 grid i (fun j ->
          let rj = Packed_roles.get roles j in
          if rj = role_ordinary || rj = role_pin then emit out_node (2 * j) 1)
      end
    end
  done;
  List.iteri
    (fun k r ->
       emit source ((2 * cells) + k) 0;
       List.iter
         (fun p -> emit ((2 * cells) + k) ((2 * Routing_grid.index grid p) + 1) 0)
         r.start_cells)
    requests

let build_grid_network ~grid ~roles requests =
  let cells = Routing_grid.cells grid in
  let nreq = List.length requests in
  let n = (2 * cells) + nreq + 2 in
  let source = (2 * cells) + nreq and sink = (2 * cells) + nreq + 1 in
  let net =
    Mcmf_grid.build ~n ~source ~sink
      ~emit_arcs:(fun f ->
        emit_network ~grid ~roles requests
          ~emit:(fun src dst cost -> f ~src ~dst ~cost))
  in
  (net, source, sink)

let validate ~grid ~pins requests =
  let bad_pin =
    List.find_opt
      (fun p -> (not (Routing_grid.on_boundary grid p)) || Routing_grid.blocked grid p)
      pins
  in
  match bad_pin with
  | Some p -> Error (Format.asprintf "pin %a is not a free boundary cell" Point.pp p)
  | None ->
    let bad_start =
      List.concat_map (fun r -> r.start_cells) requests
      |> List.find_opt (fun p -> (not (Routing_grid.in_bounds grid p)) || Routing_grid.blocked grid p)
    in
    (match bad_start with
     | Some p -> Error (Format.asprintf "start cell %a is blocked or out of bounds" Point.pp p)
     | None ->
       if List.exists (fun r -> r.start_cells = []) requests then
         Error "a request has no start cells"
       else begin
         (* Duplicate identifiers used to be dropped silently downstream
            (last [Hashtbl.replace] won); make the contract explicit. *)
         let seen = Hashtbl.create 16 in
         let dup =
           List.find_opt
             (fun r ->
                if Hashtbl.mem seen r.cluster_idx then true
                else begin
                  Hashtbl.add seen r.cluster_idx ();
                  false
                end)
             requests
         in
         match dup with
         | Some r ->
           Error (Printf.sprintf "duplicate cluster_idx %d in requests" r.cluster_idx)
         | None -> Ok ()
       end)

let feasibility_bound ?workspace ~grid ~claimed ~pins requests =
  match validate ~grid ~pins requests with
  | Error _ -> 0
  | Ok () ->
    let roles = compute_roles ?workspace ~grid ~claimed ~pins requests in
    let net, _source, _sink = build_grid_network ~grid ~roles requests in
    Mcmf_grid.max_flow ?workspace net

type solver =
  | Dijkstra
  | Spfa
  | Grid

(* One confined (or flat) min-cost-flow solve, no escalation: the ladder
   in [route] composes these. Inputs are assumed validated. *)
let solve_once ~alive ?workspace ~solver ?corridor ~grid ~claimed ~pins requests =
    let cells = Routing_grid.cells grid in
    let nreq = List.length requests in
    let n = (2 * cells) + nreq + 2 in
    let beta = (4 * cells) + 16 in
    (* The paper's [-beta] reward per routed path is realised as a stopping
       threshold: augment while a path still costs less than beta, which is
       larger than any possible augmenting-path cost — so the flow first
       maximises the number of routed clusters, then total length. *)
    let roles = compute_roles ?workspace ?corridor ~grid ~claimed ~pins requests in
    let node_paths =
      match solver with
      | Grid ->
        let net, _source, _sink = build_grid_network ~grid ~roles requests in
        let (_ : Mcmf_grid.outcome) =
          Mcmf_grid.solve ~alive ?workspace ~stop_when_cost_reaches:beta net
        in
        Mcmf_grid.decompose_paths net
      | Dijkstra ->
        let net = Mcmf.create n in
        let emit src dst cost = Mcmf.add_edge net ~src ~dst ~cap:1 ~cost in
        emit_network ~grid ~roles requests ~emit;
        let source = (2 * cells) + nreq and sink = (2 * cells) + nreq + 1 in
        let _outcome = Mcmf.solve ~alive ~stop_when_cost_reaches:beta net ~source ~sink in
        Mcmf.decompose_paths net ~source ~sink
      | Spfa ->
        let net = Mcmf_spfa.create n in
        let emit src dst cost = Mcmf_spfa.add_edge net ~src ~dst ~cap:1 ~cost in
        emit_network ~grid ~roles requests ~emit;
        let source = (2 * cells) + nreq and sink = (2 * cells) + nreq + 1 in
        let _outcome =
          Mcmf_spfa.solve ~alive ~stop_when_cost_reaches:beta net ~source ~sink
        in
        Mcmf_spfa.decompose_paths net ~source ~sink
    in
    (* Map each unit path back to its request (second node is the cluster
       node) and to grid points (in/out pairs collapse). *)
    let request_arr = Array.of_list requests in
    let routed_tbl = Hashtbl.create 16 in
    List.iter
      (fun nodes ->
         match nodes with
         | _src :: cnode :: rest when cnode >= 2 * cells && cnode < (2 * cells) + nreq ->
           let req = request_arr.(cnode - (2 * cells)) in
           let points =
             List.filter_map
               (fun node ->
                  if node < 2 * cells then Some (Routing_grid.point_of_index grid (node / 2))
                  else None)
               rest
           in
           (* Drop the in/out duplicate of each transit cell; iterative
              accumulator so Chip1-length escapes cannot overflow the
              stack. *)
           let collapse pts =
             let rec go acc = function
               | a :: (b :: _ as tl) when Point.equal a b -> go acc tl
               | a :: tl -> go (a :: acc) tl
               | [] -> List.rev acc
             in
             go [] pts
           in
           let pts = collapse points in
           (match pts with
            | [] -> ()
            | first :: _ ->
              let path = Path.of_points pts in
              Hashtbl.replace routed_tbl req.cluster_idx
                { idx = req.cluster_idx; start_cell = first; pin = Path.target path; path })
         | _ -> ())
      node_paths;
    let routed =
      List.filter_map (fun r -> Hashtbl.find_opt routed_tbl r.cluster_idx) requests
    in
    let failed =
      List.filter_map
        (fun r ->
           if Hashtbl.mem routed_tbl r.cluster_idx then None else Some r.cluster_idx)
        requests
    in
    let total_length = List.fold_left (fun acc r -> acc + Path.length r.path) 0 routed in
    { routed; failed; total_length }

(* A corridored solve that fails any request may be the corridor's fault —
   the flow network excluded transit cells a flat network keeps. [route]
   escalates through residual retries (failed requests re-solved with the
   already-routed escapes committed as claimed cells and their pins
   retired), noting each fallback on the workspace's corridor counters so
   the run no longer certifies as confinement-free.

   With [corridor_fallback] (the hierarchical engine's wider post-corridor):
   retry the failed requests inside the wider region, then retry any
   stragglers unconfined. Each retry costs [|failed|] augmentations on the
   residual; there is deliberately {e no} whole-instance flat re-solve —
   a request failing even the unconfined residual is almost always
   infeasible for flat too (the engine's race tier covers the remainder),
   and the full re-solve used to charge a whole flat solve per rip-up
   round whenever one genuinely infeasible request was present.

   Without [corridor_fallback] (bare-corridor callers): one unconfined
   residual retry, then the historical whole-instance flat re-solve, which
   keeps the strict guarantee that a corridored call never routes fewer
   requests than a flat one. *)
let route ?(alive = fun () -> true) ?workspace ?(solver = Grid) ?corridor
    ?corridor_fallback ~grid ~claimed ~pins requests =
  match validate ~grid ~pins requests with
  | Error _ as e -> e
  | Ok () ->
    let base = solve_once ~alive ?workspace ~solver ?corridor ~grid ~claimed ~pins requests in
    if corridor = None || base.failed = [] || not (alive ()) then Ok base
    else begin
      let note () =
        match workspace with
        | Some ws -> Pacor_route.Workspace.corridor_note_fallback ws
        | None -> ()
      in
      note ();
      (* Residual instance after committing [acc]'s escapes. *)
      let residual acc =
        let claimed' =
          List.fold_left
            (fun s r ->
              List.fold_left (fun s p -> Point.Set.add p s) s (Path.points r.path))
            claimed acc.routed
        in
        let pins' =
          List.filter
            (fun p -> not (List.exists (fun r -> Point.equal p r.pin) acc.routed))
            pins
        in
        let failed_reqs =
          List.filter (fun r -> List.mem r.cluster_idx acc.failed) requests
        in
        (claimed', pins', failed_reqs)
      in
      (* Combine, restoring input request order. *)
      let merge acc rest =
        let tbl = Hashtbl.create 16 in
        List.iter (fun r -> Hashtbl.replace tbl r.idx r) acc.routed;
        List.iter (fun r -> Hashtbl.replace tbl r.idx r) rest.routed;
        let routed =
          List.filter_map (fun r -> Hashtbl.find_opt tbl r.cluster_idx) requests
        in
        let failed =
          List.filter_map
            (fun r ->
              if Hashtbl.mem tbl r.cluster_idx then None else Some r.cluster_idx)
            requests
        in
        { routed; failed; total_length = acc.total_length + rest.total_length }
      in
      match corridor_fallback with
      | Some wide ->
        let claimed', pins', failed_reqs = residual base in
        let step1 =
          merge base
            (solve_once ~alive ?workspace ~solver ~corridor:wide ~grid
               ~claimed:claimed' ~pins:pins' failed_reqs)
        in
        if step1.failed = [] || not (alive ()) then Ok step1
        else begin
          note ();
          let claimed'', pins'', failed_reqs' = residual step1 in
          Ok
            (merge step1
               (solve_once ~alive ?workspace ~solver ~grid ~claimed:claimed''
                  ~pins:pins'' failed_reqs'))
        end
      | None ->
        let claimed', pins', failed_reqs = residual base in
        let rest =
          solve_once ~alive ?workspace ~solver ~grid ~claimed:claimed'
            ~pins:pins' failed_reqs
        in
        if rest.failed = [] then Ok (merge base rest)
        else begin
          note ();
          Ok (solve_once ~alive ?workspace ~solver ~grid ~claimed ~pins requests)
        end
    end
