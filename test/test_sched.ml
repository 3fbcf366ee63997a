(* The work-stealing scheduler (pacor_sched) and its pool integration.

   Three properties carry the subsystem: the Chase-Lev deque never loses
   or duplicates a task under owner/thief races; fork-join results and
   exceptions are deterministic whatever the worker count; and a worker
   blocked inside a subtask cannot starve its siblings — they migrate to
   other domains by stealing. The engine rides on top: routing runs
   forked onto several domains at once share no mutable state, so each is
   byte-identical to the sequential run. *)

module Ws_deque = Pacor_sched.Ws_deque
module Sched = Pacor_sched.Sched
module Pool = Pacor_par.Pool

(* ---- deque: sequential semantics ---- *)

let test_deque_lifo_fifo () =
  let dq = Ws_deque.create ~dummy:(-1) in
  Alcotest.(check (option int)) "empty pop" None (Ws_deque.pop dq);
  for i = 0 to 9 do
    Ws_deque.push dq i
  done;
  Alcotest.(check int) "size" 10 (Ws_deque.size dq);
  (* Owner end is LIFO. *)
  Alcotest.(check (option int)) "pop newest" (Some 9) (Ws_deque.pop dq);
  Alcotest.(check (option int)) "pop next" (Some 8) (Ws_deque.pop dq);
  (* Thief end is FIFO. *)
  (match Ws_deque.steal dq with
   | Ws_deque.Stolen x -> Alcotest.(check int) "steal oldest" 0 x
   | Ws_deque.Empty | Ws_deque.Retry -> Alcotest.fail "expected a steal");
  (match Ws_deque.steal dq with
   | Ws_deque.Stolen x -> Alcotest.(check int) "steal next oldest" 1 x
   | Ws_deque.Empty | Ws_deque.Retry -> Alcotest.fail "expected a steal");
  (* Remaining: 2..7, owner pops 7..2. *)
  for i = 7 downto 2 do
    Alcotest.(check (option int)) "drain" (Some i) (Ws_deque.pop dq)
  done;
  Alcotest.(check (option int)) "empty again" None (Ws_deque.pop dq);
  (match Ws_deque.steal dq with
   | Ws_deque.Empty -> ()
   | Ws_deque.Stolen _ | Ws_deque.Retry -> Alcotest.fail "expected Empty")

let test_deque_growth () =
  (* Push far past the initial buffer capacity, mixing in pops, so the
     buffer doubles several times with live elements in it. *)
  let dq = Ws_deque.create ~dummy:(-1) in
  let popped = ref [] in
  for i = 0 to 9999 do
    Ws_deque.push dq i;
    if i mod 3 = 2 then
      match Ws_deque.pop dq with
      | Some x -> popped := x :: !popped
      | None -> Alcotest.fail "pop of a non-empty deque returned None"
  done;
  let rec drain () =
    match Ws_deque.pop dq with
    | Some x ->
      popped := x :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  let sorted = List.sort Int.compare !popped in
  Alcotest.(check (list int)) "every element survives growth"
    (List.init 10000 Fun.id) sorted

(* Owner ops against a list model; then a full steal-drain must come out
   oldest-first (the reverse of the surviving stack). *)
let prop_deque_matches_model =
  QCheck.Test.make ~name:"deque owner ops match list model, steals FIFO"
    ~count:200
    QCheck.(small_list (option small_nat))
    (fun ops ->
       let dq = Ws_deque.create ~dummy:(-1) in
       let model = ref [] in
       let ok = ref true in
       List.iter
         (fun op ->
            match op with
            | Some x ->
              Ws_deque.push dq x;
              model := x :: !model
            | None -> (
              match Ws_deque.pop dq, !model with
              | Some x, m :: rest ->
                if x <> m then ok := false;
                model := rest
              | None, [] -> ()
              | Some _, [] | None, _ :: _ -> ok := false))
         ops;
       let rec drain acc =
         match Ws_deque.steal dq with
         | Ws_deque.Stolen x -> drain (x :: acc)
         | Ws_deque.Retry -> drain acc
         | Ws_deque.Empty -> List.rev acc
       in
       !ok && drain [] = List.rev !model)

(* ---- deque: concurrent owner/thief stress ---- *)

(* The owner interleaves pushes and pops at the bottom while several
   thieves hammer the top; afterwards the union of everything popped and
   stolen must be exactly the pushed set — no element lost to a race on
   the last slot, none handed out twice, growth included. *)
let deque_stress ~n ~nthieves =
  let dq = Ws_deque.create ~dummy:(-1) in
  let stop = Atomic.make false in
  let thieves =
    List.init nthieves (fun _ ->
      Domain.spawn (fun () ->
        let acc = ref [] in
        let rec go () =
          match Ws_deque.steal dq with
          | Ws_deque.Stolen x ->
            acc := x :: !acc;
            go ()
          | Ws_deque.Retry ->
            Domain.cpu_relax ();
            go ()
          | Ws_deque.Empty ->
            if Atomic.get stop then !acc
            else begin
              Domain.cpu_relax ();
              go ()
            end
        in
        go ()))
  in
  let popped = ref [] in
  let i = ref 0 in
  while !i < n do
    Ws_deque.push dq !i;
    incr i;
    if !i < n then begin
      Ws_deque.push dq !i;
      incr i
    end;
    match Ws_deque.pop dq with
    | Some x -> popped := x :: !popped
    | None -> ()
  done;
  let rec drain () =
    match Ws_deque.pop dq with
    | Some x ->
      popped := x :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  let stolen = List.concat_map Domain.join thieves in
  List.sort Int.compare (!popped @ stolen) = List.init n Fun.id

let test_deque_concurrent_stress () =
  Alcotest.(check bool) "no element lost or duplicated under 3 thieves" true
    (deque_stress ~n:20000 ~nthieves:3)

let prop_deque_concurrent =
  QCheck.Test.make ~name:"concurrent owner/thief drain is exact" ~count:10
    QCheck.(pair (int_range 1 3) (int_range 100 3000))
    (fun (nthieves, n) -> deque_stress ~n ~nthieves)

(* ---- scheduler: fork-join semantics on pool workers ---- *)

(* [~domains] forces real worker domains even on a single-core machine
   (the pool otherwise clamps to [Domain.recommended_domain_count]). *)

let test_parallel_for_offworker_inline () =
  (* From a non-worker domain a parallel_for degrades to an inline
     ascending loop — observable as strictly ordered side effects. *)
  Pool.with_pool ~domains:2 ~jobs:2 (fun pool ->
    let sched = Pool.sched pool in
    let order = ref [] in
    Sched.parallel_for sched ~n:8 (fun i -> order := i :: !order);
    Alcotest.(check (list int)) "inline execution is ascending"
      [ 0; 1; 2; 3; 4; 5; 6; 7 ] (List.rev !order))

let test_nested_scopes () =
  Pool.with_pool ~domains:4 ~jobs:4 (fun pool ->
    let sched = Pool.sched pool in
    let result =
      Pool.map_ctx pool
        (fun _ () ->
           (* Divide-and-conquer sum with a nested scope per split: joins
              must caller-help (never park) or this deadlocks when scopes
              outnumber domains. *)
           let rec sum lo hi =
             if hi - lo <= 16 then begin
               let s = ref 0 in
               for i = lo to hi - 1 do
                 s := !s + i
               done;
               !s
             end
             else begin
               let mid = (lo + hi) / 2 in
               let a = ref 0 and b = ref 0 in
               Sched.scope sched (fun sc ->
                 Sched.fork sc (fun () -> a := sum lo mid);
                 Sched.fork sc (fun () -> b := sum mid hi));
               !a + !b
             end
           in
           sum 0 1024)
        [ () ]
    in
    Alcotest.(check (list int)) "nested scopes compute the sum"
      [ 1024 * 1023 / 2 ] result)

exception Boom of int

let test_exception_earliest_index () =
  Pool.with_pool ~domains:4 ~jobs:4 (fun pool ->
    let sched = Pool.sched pool in
    match
      Pool.try_map_ctx pool
        (fun _ () ->
           Sched.parallel_for sched ~n:16 (fun i ->
             if i mod 3 = 2 then raise (Boom i)))
        [ () ]
    with
    | [ Error (Boom i) ] ->
      (* Indices 2, 5, 8, 11, 14 all raise; whichever fails first in wall
         clock, the join reports the smallest fork index. *)
      Alcotest.(check int) "earliest fork index wins" 2 i
    | [ Error e ] -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
    | _ -> Alcotest.fail "expected the task to fail with Boom")

let test_steal_progress () =
  (* Starvation check: the forking worker pops the last-forked chunk first
     (LIFO) and blocks in it until most of its siblings have run — which
     is only possible if other domains steal them. A lost wakeup or a
     broken steal path shows up as the 20s deadline tripping. *)
  Pool.with_pool ~domains:4 ~jobs:4 (fun pool ->
    let sched = Pool.sched pool in
    let flags = Array.init 8 (fun _ -> Atomic.make false) in
    let starved = Atomic.make false in
    ignore
      (Pool.map_ctx pool
         (fun _ () ->
            Sched.parallel_for sched ~n:8 (fun i ->
              if i < 7 then Atomic.set flags.(i) true
              else begin
                let t0 = Unix.gettimeofday () in
                let enough () =
                  let c = ref 0 in
                  for j = 0 to 6 do
                    if Atomic.get flags.(j) then incr c
                  done;
                  !c >= 6
                in
                while (not (enough ())) && Unix.gettimeofday () -. t0 < 20.0 do
                  Domain.cpu_relax ()
                done;
                if not (enough ()) then Atomic.set starved true
              end))
         [ () ]);
    Alcotest.(check bool) "siblings ran while one chunk blocked" false
      (Atomic.get starved);
    let st = Pool.sched_stats pool in
    Alcotest.(check bool) "they migrated by stealing" true
      (st.Sched.steals > 0))

(* ---- pool: concurrent map callers (per-call completion sync) ---- *)

let test_concurrent_map_callers () =
  (* Two non-worker domains hammer one pool with interleaved map_ctx
     calls. Each call must see its own completion wakeup — when calls
     shared the pool-wide condition variable, one caller could consume
     the other's broadcast and hang or return early. *)
  let pool = Pool.create ~domains:2 ~jobs:2 () in
  let caller d =
    Domain.spawn (fun () ->
      let ok = ref true in
      for k = 1 to 25 do
        let xs = List.init 40 (fun i -> i + k) in
        let expect = List.map (fun x -> (x * 2) + d) xs in
        let got = Pool.map_ctx pool (fun _ x -> (x * 2) + d) xs in
        if got <> expect then ok := false
      done;
      !ok)
  in
  let a = caller 1 in
  let b = caller 2 in
  let ra = Domain.join a in
  let rb = Domain.join b in
  Pool.shutdown pool;
  Alcotest.(check bool) "caller A saw every completion" true ra;
  Alcotest.(check bool) "caller B saw every completion" true rb

(* ---- engine: concurrent runs on forked subtasks ---- *)

let corpus_dir =
  match Sys.getenv_opt "DUNE_SOURCEROOT" with
  | Some root -> Filename.concat root "corpus"
  | None -> Filename.concat (Sys.getcwd ()) "../../../corpus"

let load name =
  let path = Filename.concat corpus_dir (name ^ ".chip") in
  match Pacor.Problem_io.load ~path with
  | Ok p -> p
  | Error e -> Alcotest.failf "cannot load %s: %s" path e

let pp_work ppf (s : Pacor_route.Search_stats.snapshot) =
  Format.fprintf ppf "searches=%d pops=%d pushes=%d touched=%d relax=%d resets=%d"
    s.Pacor_route.Search_stats.searches s.Pacor_route.Search_stats.pops
    s.Pacor_route.Search_stats.pushes s.Pacor_route.Search_stats.touched
    s.Pacor_route.Search_stats.relaxations s.Pacor_route.Search_stats.resets

(* Same determinism fingerprint as test_par: rendered routing, statistics,
   per-cluster lengths and per-stage search counters; only wall-clock and
   grid_allocs excluded. *)
let fingerprint (sol : Pacor.Solution.t) =
  let st = Pacor.Solution.stats sol in
  Format.asprintf "%s|clusters=%d matched=%d matched_len=%d total=%d compl=%.9f|%a"
    (Pacor.Render.solution sol)
    st.Pacor.Solution.clusters st.Pacor.Solution.matched_clusters
    st.Pacor.Solution.matched_length st.Pacor.Solution.total_length
    st.Pacor.Solution.completion
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
       (fun ppf (label, snap) -> Format.fprintf ppf "%s:%a" label pp_work snap))
    sol.Pacor.Solution.stage_search

let test_concurrent_engine_byte_identity () =
  (* Each forked subtask routes with its own fresh workspace; with no
     process-global workspace pool left, nothing is shared between the
     domains, so every copy must match the sequential fingerprint. *)
  let names = [| "corpus-dense"; "corpus-bigcluster" |] in
  let problems = Array.map load names in
  let route name problem =
    match Pacor.Engine.run problem with
    | Ok sol -> sol
    | Error e -> Alcotest.failf "%s failed: %s" name e.Pacor.Engine.message
  in
  let seq = Array.mapi (fun i p -> fingerprint (route names.(i) p)) problems in
  let copies = 2 in
  let n = copies * Array.length problems in
  let got = Array.make n "" in
  Pool.with_pool ~domains:2 ~jobs:2 (fun pool ->
    let sched = Pool.sched pool in
    ignore
      (Pool.map_ctx pool
         (fun _ () ->
            Sched.parallel_for sched ~n (fun k ->
              let i = k mod Array.length problems in
              got.(k) <- fingerprint (route names.(i) problems.(i))))
         [ () ]));
  Array.iteri
    (fun k fp ->
       let i = k mod Array.length problems in
       Alcotest.(check string)
         (Printf.sprintf "%s: copy %d byte-identical to sequential" names.(i)
            (k / Array.length problems))
         seq.(i) fp)
    got

let () =
  Alcotest.run "sched"
    [ ( "deque",
        [ Alcotest.test_case "owner LIFO, thief FIFO" `Quick test_deque_lifo_fifo;
          Alcotest.test_case "growth preserves every element" `Quick
            test_deque_growth;
          Alcotest.test_case "concurrent owner/thief stress" `Quick
            test_deque_concurrent_stress;
          QCheck_alcotest.to_alcotest prop_deque_matches_model;
          QCheck_alcotest.to_alcotest prop_deque_concurrent ] );
      ( "fork-join",
        [ Alcotest.test_case "off-worker parallel_for is inline" `Quick
            test_parallel_for_offworker_inline;
          Alcotest.test_case "nested scopes" `Quick test_nested_scopes;
          Alcotest.test_case "earliest-index exception" `Quick
            test_exception_earliest_index;
          Alcotest.test_case "blocked chunk cannot starve siblings" `Quick
            test_steal_progress;
          Alcotest.test_case "concurrent map callers" `Quick
            test_concurrent_map_callers ] );
      ( "engine determinism",
        [ Alcotest.test_case "concurrent runs byte-identical to sequential"
            `Slow test_concurrent_engine_byte_identity ] ) ]
