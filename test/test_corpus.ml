(* Tests for the scenario corpus (bench/corpus.ml) and the [Auto]
   policy ([Engine.choose]):

   - determinism: one seed fixes the generated instance set byte for
     byte;
   - the policy is pinned: its per-method counts on the seed-42 corpus,
     and its decisions at every boundary (4 vs 5 attributes, deadlines
     just under, at and without the 25 ms cut, cardinality vs set form,
     l_max 3 vs 4);
   - differential: [Auto] costs the same as invoking the chosen method
     directly, and reports it as [method_used];
   - [choose] never picks a method that refuses the instance. *)

module E = Core.Engine
module C = Svbench.Corpus
module G = Svbench.Gen_instances
module I = Core.Instance
module Req = Core.Requirement
module J = Svutil.Json
module Lx = Svutil.Listx

let prop ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* Generation ---------------------------------------------------------- *)

let test_generate_deterministic () =
  let dump seed recs = J.to_string (C.instances_to_json ~seed recs) in
  let a = C.generate ~smoke:true ~seed:42 () in
  let b = C.generate ~smoke:true ~seed:42 () in
  Alcotest.(check string) "same seed, byte-identical dump" (dump 42 a)
    (dump 42 b);
  let c = C.generate ~smoke:true ~seed:43 () in
  Alcotest.(check bool) "different seed, different corpus" true
    (dump 43 c <> dump 42 a)

let test_corpus_shape () =
  let full = C.generate ~seed:42 () in
  Alcotest.(check bool) "at least 200 instances" true
    (List.length full >= 200);
  let fams = Lx.dedup (List.map (fun (r : C.inst_rec) -> r.C.family) full) in
  Alcotest.(check int) "five topology families" 5 (List.length fams);
  Alcotest.(check int) "ids are unique" (List.length full)
    (List.length (Lx.dedup (List.map (fun (r : C.inst_rec) -> r.C.id) full)))

(* The policy ------------------------------------------------------------ *)

let method_counts recs deadline_ms =
  let count m =
    List.length
      (List.filter
         (fun (r : C.inst_rec) ->
           E.choose { (E.default_request r.C.inst) with E.deadline_ms } = m)
         recs)
  in
  List.map
    (fun m -> (E.meth_to_string m, count m))
    [ E.Greedy; E.Round_card; E.Round_set; E.Exact; E.Brute ]

(* Recorded from the fitted routing table this closed form replaced:
   the same corpus, the same counts. *)
let test_corpus_counts () =
  let full = C.generate ~seed:42 () in
  let counts = Alcotest.(list (pair string int)) in
  Alcotest.check counts "no deadline"
    [
      ("greedy", 0); ("round-card", 0); ("round-set", 0); ("exact", 358);
      ("brute", 2);
    ]
    (method_counts full None);
  Alcotest.check counts "10 ms deadline"
    [
      ("greedy", 0); ("round-card", 130); ("round-set", 228); ("exact", 0);
      ("brute", 2);
    ]
    (method_counts full (Some 10.))

(* One private module over [n] attributes: the first [n - 1] are inputs,
   the last the output. [Card] hides one input; [Sets l] offers [l]
   single-input options. *)
let one_module n req =
  let attrs = List.init n (fun i -> Printf.sprintf "a%d" i) in
  let inputs = Lx.take (n - 1) attrs in
  let req =
    match req with
    | `Card -> Req.Card [ (1, 0) ]
    | `Sets l -> Req.Sets (List.map (fun a -> ([ a ], [])) (Lx.take l inputs))
  in
  I.make
    ~attr_costs:(List.map (fun a -> (a, Rat.one)) attrs)
    ~mods:[ { I.m_name = "m"; inputs; outputs = [ List.nth attrs (n - 1) ]; req } ]
    ()

let test_choose_boundaries () =
  let check what expected inst deadline_ms =
    Alcotest.(check string) what (E.meth_to_string expected)
      (E.meth_to_string
         (E.choose { (E.default_request inst) with E.deadline_ms }))
  in
  let card4 = one_module 4 `Card and card5 = one_module 5 `Card in
  check "4 attrs, no deadline: brute" E.Brute card4 None;
  check "4 attrs, tight deadline: brute" E.Brute card4 (Some 24.99);
  check "5 attrs, no deadline: exact" E.Exact card5 None;
  check "5 attrs card, 24.99 ms: round-card" E.Round_card card5 (Some 24.99);
  check "5 attrs card, 25 ms: exact" E.Exact card5 (Some 25.);
  let sets3 = one_module 5 (`Sets 3) and sets4 = one_module 5 (`Sets 4) in
  check "sets l_max 3, 24.99 ms: round-set" E.Round_set sets3 (Some 24.99);
  check "sets l_max 4, 24.99 ms: greedy" E.Greedy sets4 (Some 24.99);
  check "sets l_max 4, 25 ms: exact" E.Exact sets4 (Some 25.);
  check "sets l_max 4, no deadline: exact" E.Exact sets4 None;
  (* One cardinality module is not enough for Algorithm 1. *)
  let mixed = G.disjoint_union [ card5; sets3 ] in
  check "mixed forms, 24.99 ms: round-set" E.Round_set mixed (Some 24.99)

let smoke_pool =
  lazy (Array.of_list (C.generate ~smoke:true ~seed:42 ()))

let differential_prop =
  prop ~count:40 "auto cost equals the directly-invoked"
    QCheck2.Gen.(int_range 0 100_000)
    (fun n ->
      let pool = Lazy.force smoke_pool in
      let ir = pool.(n mod Array.length pool) in
      let req = { (E.default_request ir.C.inst) with E.meth = E.Auto } in
      let m = E.choose req in
      let auto = E.run req in
      let direct = E.run { req with E.meth = m } in
      auto.E.method_used = m
      &&
      match (auto.E.solution, direct.E.solution) with
      | Some a, Some b ->
          Rat.equal a.Core.Solution.cost b.Core.Solution.cost
      | None, None -> true
      | _ -> false)

(* Random instances in cardinality, set (l_max 1..6) and mixed form,
   from 1 to 6 modules. *)
let gen_instance =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* n_modules = int_range 1 6 in
    let* form = int_range 0 2 in
    let* lmax = int_range 1 6 in
    let rng = Svutil.Rng.create seed in
    let shape =
      { G.default_shape with G.n_modules; max_inputs = 3; max_outputs = 2 }
    in
    return
      (match form with
      | 0 -> G.random_card rng shape
      | 1 -> G.random_sets rng shape ~lmax
      | _ ->
          G.disjoint_union
            [ G.random_card rng shape; G.random_sets rng shape ~lmax ]))

(* Brute refuses more than [Exact.brute_force_limit] attributes and
   Algorithm 1 refuses any set-form module; [choose] must respect both,
   and running what it picks must not be refused. *)
let never_refused_prop =
  prop ~count:300 "choose never picks a refusing method"
    QCheck2.Gen.(pair gen_instance (option (float_range 0. 100.)))
    (fun (inst, deadline_ms) ->
      let req = { (E.default_request inst) with E.deadline_ms } in
      let m = E.choose req in
      let not_refused () =
        not (List.mem_assoc "refused" (E.run { req with E.meth = m }).E.stats)
      in
      match m with
      | E.Auto -> false
      | E.Brute ->
          List.length (I.attrs inst) <= Core.Exact.brute_force_limit
          && not_refused ()
      | E.Round_card -> Core.Exact.all_cardinality inst && not_refused ()
      | E.Greedy | E.Round_set | E.Exact -> true)

(* The random instances above stay small; past the brute-force limit
   [choose] must pick branch and bound or, under a tight deadline, a
   rounding method or greedy. *)
let wide_off_brute_prop =
  prop ~count:100 "choose keeps wide instances off brute"
    QCheck2.Gen.(
      triple
        (int_range (Core.Exact.brute_force_limit + 1) 80)
        (oneofl [ `Card; `Sets 3; `Sets 4 ])
        (option (float_range 0. 100.)))
    (fun (n, form, deadline_ms) ->
      let req = { (E.default_request (one_module n form)) with E.deadline_ms } in
      match E.choose req with E.Brute | E.Auto -> false | _ -> true)

let () =
  Alcotest.run "corpus"
    [
      ( "generate",
        [
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "shape" `Quick test_corpus_shape;
        ] );
      ( "routing",
        [
          Alcotest.test_case "pinned corpus method counts" `Quick
            test_corpus_counts;
          Alcotest.test_case "choose boundaries" `Quick test_choose_boundaries;
          differential_prop;
          never_refused_prop;
          wide_off_brute_prop;
        ] );
    ]
