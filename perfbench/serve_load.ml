(* The serve request script: a closed-loop client script over named design
   sessions, generated in full from the seed before anything is timed, plus
   the expectation of every response. The same script drives the real
   daemon process (the end-to-end run) and [Pacor_serve.Server.handle]
   in-process (the traced run).

   After one binding [route] per session the script cycles a 20-request
   pattern: 10 cache-hit routes (a session's original chip), 2 cache-miss
   routes (a pool larger than the daemon's 64-entry cache), 2 edits and 6
   pings. Hits are the majority, so the median request is a hit. The first
   cycle swaps one ping for a malformed line and another for a route under
   a one-expansion budget.

   The edits go to the sessions in turn. Under [Round_trip] each session
   makes four edits (move_valve, add_obstacle, remove_obstacle, set_delta
   looser) and then undoes them in reverse order, so every session is back
   at its original chip after each round of 8 edits and the script body can
   be replayed for as long as a run lasts. Each forward edit is drawn until
   the edited chip still routes completely from scratch, as in a design
   loop on a routable chip; see README.md for what the daemon does
   otherwise. [Unfiltered] accumulates the four kinds without that filter
   and without undoing them (the known-finding reproduction), and
   [Loosen_only] only removes obstacles and loosens delta, edits that never
   force a re-route. *)

open Pacor_geom
module J = Pacor_serve.Json

type kind = Bind | Hit | Miss | Delta of string | Ping | Malformed | Starved

let kind_label = function
  | Bind -> "bind"
  | Hit -> "hit"
  | Miss -> "miss"
  | Delta d -> d
  | Ping -> "ping"
  | Malformed -> "malformed"
  | Starved -> "starved"

type request = {
  kind : kind;
  line : string;
  expect_ok : bool;
  expected : (string * Inst.expected) option;  (** key and recorded result *)
  valves : int option;  (** the session's valve count once an edit is accepted *)
}

type edits = Round_trip | Unfiltered | Loosen_only

(* The binds, then a body that may be replayed from its start. *)
type script = { binds : int; requests : request array }

let length s = Array.length s.requests

(* Request [i] of a run that replays the body after the binds. *)
let nth s i =
  let body = Array.length s.requests - s.binds in
  s.requests.(if i < s.binds then i else s.binds + ((i - s.binds) mod body))

let pattern = "HPMHHDHPHHPHMPHDHPHP"
let per_cycle c = String.fold_left (fun n x -> if x = c then n + 1 else n) 0 pattern
let malformed_at = 10
let starved_at = 13

let req fields = J.to_string (J.Obj fields)
let session_name k = Printf.sprintf "s%d" k

let free_cells (p : Pacor.Problem.t) =
  let taken =
    List.fold_left (fun acc (v : Pacor_valve.Valve.t) -> Point.Set.add v.position acc)
      (Point.Set.of_list p.pins) p.valves
  in
  let grid = p.grid in
  let acc = ref [] in
  for y = Pacor_grid.Routing_grid.height grid - 2 downto 1 do
    for x = Pacor_grid.Routing_grid.width grid - 2 downto 1 do
      let pt = Point.make x y in
      if Pacor_grid.Routing_grid.free grid pt && not (Point.Set.mem pt taken) then acc := pt :: !acc
    done
  done;
  !acc

let blocked_cells (p : Pacor.Problem.t) =
  let acc = ref [] in
  Pacor_grid.Obstacle_map.iter_blocked (Pacor_grid.Routing_grid.obstacles p.grid)
    (fun pt -> acc := pt :: !acc);
  List.sort Point.compare !acc

(* Whether the chip routes completely from scratch. *)
let routable p =
  match Pacor.Engine.run p with
  | Ok sol -> Result.is_ok (Pacor.Solution.validate sol)
  | Error _ -> false

(* An edit: its op, its fields, and the session's problem after it. *)
type edit = { op : string; fields : (string * J.t) list; after : (Pacor.Problem.t, string) result }

let at (pt : Point.t) = [ ("x", J.Int pt.x); ("y", J.Int pt.y) ]
let move (v : Pacor_valve.Valve.t) pt p =
  { op = "move_valve"; fields = ("valve", J.Int v.id) :: at pt; after = Pacor.Problem.move_valve p v.id pt }
let add pt p = { op = "add_obstacle"; fields = at pt; after = Pacor.Problem.add_obstacle p pt }
let remove pt p = { op = "remove_obstacle"; fields = at pt; after = Pacor.Problem.remove_obstacle p pt }
let set_delta d p = { op = "set_delta"; fields = [ ("delta", J.Int d) ]; after = Pacor.Problem.with_delta p d }

(* The edit that takes [p'] back to [p], for an edit [e] from [p]. *)
let undo (e : edit) (p : Pacor.Problem.t) p' =
  match e.op with
  | "move_valve" ->
    let id = match List.assoc "valve" e.fields with J.Int id -> id | _ -> assert false in
    let v = List.find (fun (v : Pacor_valve.Valve.t) -> v.id = id) p.valves in
    move v v.position p'
  | "add_obstacle" ->
    (match e.fields with [ (_, J.Int x); (_, J.Int y) ] -> remove (Point.make x y) p' | _ -> assert false)
  | "remove_obstacle" ->
    (match e.fields with [ (_, J.Int x); (_, J.Int y) ] -> add (Point.make x y) p' | _ -> assert false)
  | _ -> set_delta p.delta p'

let generate ~edits ~seed ~table ~(sessions : Inst.t array) ~(misses : Inst.t array)
    ~(starved : Inst.t) ~cycles =
  let n = Array.length sessions in
  let mirrors = Array.map (fun (s : Inst.t) -> s.problem) sessions in
  let undos = Array.make n [] and steps = Array.make n 0 in
  let deltas = ref 0 and next_miss = ref 0 in
  let lookup (inst : Inst.t) =
    match Hashtbl.find_opt table inst.key with
    | Some e -> Some (inst.key, e)
    | None -> failwith ("no recorded result for " ^ inst.key)
  in
  let gen i =
    let route ?session ?limits (inst : Inst.t) =
      req
        ((("id", J.Int i) :: ("op", J.String "route") :: ("problem", J.String inst.text)
          :: (match session with Some k -> [ ("session", J.String (session_name k)) ] | None -> []))
         @ match limits with Some l -> [ ("limits", l) ] | None -> [])
    in
    let pick salt = function
      | [] -> None
      | l -> Some (List.nth l (Hashtbl.hash (seed, i, salt) mod List.length l))
    in
    let simple kind line =
      { kind; line; expect_ok = kind <> Malformed; expected = None; valves = None }
    in
    let ping () = simple Ping (req [ ("id", J.Int i); ("op", J.String "ping") ]) in
    let request k (e : edit) =
      let line =
        req ([ ("id", J.Int i); ("op", J.String e.op); ("session", J.String (session_name k)) ]
             @ e.fields)
      in
      match e.after with
      | Ok p' ->
        mirrors.(k) <- p';
        { kind = Delta e.op; line; expect_ok = true; expected = None;
          valves = Some (Pacor.Problem.valve_count p') }
      | Error _ -> { kind = Delta e.op; line; expect_ok = false; expected = None; valves = None }
    in
    (* A forward edit of kind [kind] on problem [p], drawn until [keep]
       accepts it; at most 8 draws. *)
    let draw kind p ~keep =
      let d0 = p.Pacor.Problem.delta in
      let once attempt =
        match kind with
        | 0 ->
          (match pick ("valve", attempt) p.valves, pick ("to", attempt) (free_cells p) with
           | Some v, Some pt -> Some (move v pt p)
           | _ -> None)
        | 1 -> Option.map (fun pt -> add pt p) (pick ("add", attempt) (free_cells p))
        | 2 -> Option.map (fun pt -> remove pt p) (pick ("remove", attempt) (blocked_cells p))
        | _ -> if attempt = 0 then Some (set_delta (d0 + 1) p) else None
      in
      let rec go attempt =
        if attempt = 8 then None
        else
          match once attempt with
          | Some e when (match e.after with Ok p' -> keep p' | Error _ -> true) -> Some e
          | _ -> go (attempt + 1)
      in
      go 0
    in
    let delta () =
      let k = !deltas mod n in
      incr deltas;
      let p = mirrors.(k) and step = steps.(k) in
      steps.(k) <- step + 1;
      match edits with
      | Loosen_only ->
        Option.map (request k) (draw (2 + (step mod 2)) p ~keep:(fun _ -> true))
        |> Option.value ~default:(ping ())
      | Unfiltered ->
        let d0 = sessions.(k).problem.delta in
        if step mod 4 = 3 then
          request k (set_delta (if p.delta > d0 then d0 else d0 + 1) p)
        else
          Option.map (request k) (draw (step mod 4) p ~keep:(fun _ -> true))
          |> Option.value ~default:(ping ())
      | Round_trip when step mod 8 < 4 ->
        (match draw (step mod 8) p ~keep:routable with
         | Some ({ after = Ok p'; _ } as e) ->
           undos.(k) <- Some (undo e p p') :: undos.(k);
           request k e
         | Some e -> undos.(k) <- None :: undos.(k); request k e
         | None -> undos.(k) <- None :: undos.(k); ping ())
      | Round_trip ->
        (match undos.(k) with
         | Some e :: rest -> undos.(k) <- rest; request k e
         | None :: rest -> undos.(k) <- rest; ping ()
         | [] -> assert false)
    in
    if i < n then
      { kind = Bind; line = route ~session:i sessions.(i); expect_ok = true;
        expected = lookup sessions.(i); valves = None }
    else begin
      let j = i - n in
      if j = malformed_at then simple Malformed "{this is not json"
      else if j = starved_at then
        simple Starved (route starved ~limits:(J.Obj [ ("max_expansions", J.Int 1) ]))
      else
        match pattern.[j mod String.length pattern] with
        | 'H' ->
          let s = sessions.((j / 3) mod n) in
          { (simple Hit (route s)) with expected = lookup s }
        | 'M' when Array.length misses > 0 ->
          let s = misses.(!next_miss mod Array.length misses) in
          incr next_miss;
          { (simple Miss (route s)) with expected = lookup s }
        | 'D' -> delta ()
        | _ -> ping ()
    end
  in
  { binds = n; requests = Array.init (n + (cycles * String.length pattern)) gen }

(* Cycles that return every session to its original chip under
   [Round_trip]: 8 edits per session per round. *)
let round_cycles ~sessions ~rounds = rounds * 8 * sessions / per_cycle 'D'

(* ---------- responses ---------- *)

type reply = {
  ok : bool;
  cached : bool;
  incremental : bool;
  result : J.t option;
}

let member_path path j =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path

let parse_reply line =
  match J.of_string line with
  | Error e -> Error ("unparseable response: " ^ e)
  | Ok j ->
    let flag path = Option.value ~default:false (Option.bind (member_path path j) J.bool_opt) in
    Ok { ok = flag [ "ok" ]; cached = flag [ "cached" ];
         incremental = flag [ "result"; "incremental" ]; result = J.member "result" j }

let result_int reply key =
  Option.value ~default:(-1)
    (Option.bind (Option.bind reply.result (J.member key)) J.int_opt)

(* The routing result a route answer reports. *)
let served reply =
  { Inst.total_length = result_int reply "total_length";
    matched = result_int reply "matched_clusters";
    routed = result_int reply "routed_valves" }

(* What is wrong with answer [line] to request [r], parsed as [reply]. *)
let verdict r reply line =
  let field key = Option.bind reply.result (J.member key) in
  if reply.ok <> r.expect_ok then
    Some (Printf.sprintf "%s answered ok=%b, script expects %b: %s" (kind_label r.kind)
            reply.ok r.expect_ok line)
  else
    match r.kind, r.expected with
    | Starved, _ when field "budget_exhausted" = Some J.Null || field "budget_exhausted" = None ->
      Some "starved route did not report budget exhaustion"
    | Delta _, _ when reply.ok ->
      let valves = Option.value ~default:(-1) r.valves in
      if result_int reply "valves" <> valves then
        Some (Printf.sprintf "%s: the session now has %d valves, the edited chip %d: %s"
                (kind_label r.kind) (result_int reply "valves") valves r.line)
      else if field "valid" <> Some (J.Bool true) then
        Some (Printf.sprintf "%s: edited session does not validate: %s answered %s"
                (kind_label r.kind) r.line line)
      else None
    | (Bind | Hit | Miss), Some (key, e) ->
      let got = served reply in
      if field "valid" <> Some (J.Bool true) then Some (key ^ ": served solution does not validate")
      else if got <> e then
        Some (Printf.sprintf "%s: served length %d matched %d routed %d, recorded %d %d %d"
                key got.total_length got.matched got.routed e.total_length e.matched e.routed)
      else None
    | _ -> None

(* Check a response against the script. *)
let check r line =
  match parse_reply line with
  | Error e -> Error e
  | Ok reply -> (match verdict r reply line with Some p -> Error p | None -> Ok reply)

(* ---------- the daemon process ---------- *)

type daemon = { pid : int; to_d : out_channel; from_d : in_channel }

let spawn ~exe ~journal =
  if Sys.file_exists journal then Sys.remove journal;
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--journal"; journal |] in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  { pid; to_d = Unix.out_channel_of_descr in_w; from_d = Unix.in_channel_of_descr out_r }

let call d line =
  output_string d.to_d line;
  output_char d.to_d '\n';
  flush d.to_d;
  input_line d.from_d

(* Ask for a clean shutdown, then reap the process; kill it if it has
   not exited within five seconds. *)
let stop d =
  (try ignore (call d (req [ ("op", J.String "shutdown") ])) with _ -> ());
  (try close_out d.to_d with _ -> ());
  (try close_in d.from_d with _ -> ());
  let rec reap tries =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when tries > 0 -> Unix.sleepf 0.01; reap (tries - 1)
    | 0, _ -> (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()); ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap 500
