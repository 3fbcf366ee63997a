(* Workload instances: every chip the benchmark routes comes from a
   published (Table 1) or synthetic generator spec. The workload seed
   orders the chips and draws the serve edits; it never alters a chip,
   because re-oriented copies of these chips route in very different times
   (Chip1 mirrored falls into the selection blow-up recorded in README.md,
   Scaled3 varies 4.7-8.6 s) or fail validation. The expected result of
   every chip is recorded in [expected.tsv]. *)

module Syn = Pacor_designs.Synthetic

type size = Full | Mini

type t = {
  key : string;  (** the spec name: the expected-table key *)
  problem : Pacor.Problem.t;
  text : string;  (** canonical instance text, as the daemon receives it *)
}

let of_spec spec =
  match Syn.generate spec with
  | Error e -> failwith (spec.Syn.name ^ ": generation failed: " ^ e)
  | Ok problem -> { key = spec.Syn.name; problem; text = Pacor.Problem_io.to_string problem }

(* Seeded choices, independent per purpose and slot. *)
let rng ~seed tag =
  Pacor_designs.Rng.create ~seed:(Int64.of_int (Hashtbl.hash (tag, seed)))

let table1 name =
  match Pacor_designs.Table1.spec_of name with
  | Some s -> s
  | None -> invalid_arg ("unknown Table 1 design " ^ name)

(* The route workloads: Table 1's Chip1 and the hierarchy's Scaled3
   (S4 and Scaled1 in the minimal self-test size). *)
let chip1_spec = function Full -> table1 "Chip1" | Mini -> table1 "S4"
let scaled_spec = function Full -> Pacor_designs.Scaled.spec 3 | Mini -> Pacor_designs.Scaled.spec 1

(* LM-heavy synthetic chips: 10 length-matched clusters of 6-8 valves on
   110x110, delta 1. Length-matching routing (DME, selection, negotiation)
   is about 40% of their engine time; larger cluster counts reach the
   exact-selection blow-up recorded in README.md. *)
let lm_pool_size = function Full -> 24 | Mini -> 3

let lm_spec size i =
  let r = Pacor_designs.Rng.create ~seed:(Int64.of_int (1000 + i)) in
  let side, clusters = match size with Full -> (110, 10) | Mini -> (40, 3) in
  { Syn.name = (match size with Full -> Printf.sprintf "lm%02d" i | Mini -> Printf.sprintf "lmmini%d" i);
    width = side;
    height = side;
    obstacle_cells = side * side / 100;
    lm_cluster_sizes = List.init clusters (fun _ -> 6 + Pacor_designs.Rng.int r ~bound:3);
    singleton_valves = 6;
    pin_count = 3 * side;
    seed = Int64.of_int ((7919 * i) + 1);
    delta = 1 }

(* The exact-selection blow-up recorded in README.md. *)
let blowup_spec =
  let r = Pacor_designs.Rng.create ~seed:151L in
  { Syn.name = "blowup151";
    width = 150;
    height = 150;
    obstacle_cells = 225;
    lm_cluster_sizes = List.init 24 (fun _ -> 4 + Pacor_designs.Rng.int r ~bound:5);
    singleton_valves = 6;
    pin_count = 450;
    seed = 151L;
    delta = 1 }

(* Serve instances: small chips a designer edits interactively (about 8 ms
   to route each). The first ones are the sessions; cache misses cycle
   through the rest, more chips than the daemon's 64-entry solution cache
   holds. One more chip is routed under a starvation budget. *)
let serve_sessions = function Full -> 8 | Mini -> 2
let serve_pool = function Full -> 104 | Mini -> 5

let serve_spec k =
  { Syn.name = Printf.sprintf "srv%03d" k;
    width = 48 + (8 * (k mod 3));
    height = 40 + (4 * (k mod 4));
    obstacle_cells = 40;
    lm_cluster_sizes = [ 2; 3; 3 ];
    singleton_valves = 6;
    pin_count = 48;
    seed = Int64.of_int (1000 + (37 * k));
    delta = 2 }

(* Smaller session chips, on which known finding 2 of README.md was seen. *)
let drop_spec k =
  { Syn.name = Printf.sprintf "drop%03d" k;
    width = 24 + (4 * (k mod 3));
    height = 16 + (2 * (k mod 4));
    obstacle_cells = 20;
    lm_cluster_sizes = [ 2; 3 ];
    singleton_valves = 2;
    pin_count = 12;
    seed = Int64.of_int (1000 + (37 * k));
    delta = 2 }

let starved_spec = { (serve_spec 0) with Syn.name = "srvstarved"; seed = 999L }

(* ---------- expected results ---------- *)

type expected = { total_length : int; matched : int; routed : int }

let result_of (sol : Pacor.Solution.t) =
  let st = Pacor.Solution.stats sol in
  { total_length = st.Pacor.Solution.total_length;
    matched = st.Pacor.Solution.matched_clusters;
    routed = Pacor_serve.Protocol.routed_valves sol }

let load_expected path =
  let tbl = Hashtbl.create 1024 in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
    try
      while true do
        match String.split_on_char '\t' (input_line ic) with
        | [ key; l; m; r ] when key <> "" && key.[0] <> '#' ->
          Hashtbl.replace tbl key
            { total_length = int_of_string l; matched = int_of_string m;
              routed = int_of_string r }
        | _ -> ()
      done
    with End_of_file -> ());
  tbl

(* Every spec the benchmark can route, for recording the table. *)
let all_specs () =
  List.concat_map
    (fun size -> [ chip1_spec size; scaled_spec size ] @ List.init (lm_pool_size size) (lm_spec size))
    [ Full; Mini ]
  @ List.init (serve_pool Full) serve_spec
