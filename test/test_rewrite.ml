(* Differential proof of the rewrite-based secure read path (Core.Rewrite):
   on seeded (document, policy, query) triples, the rewritten answers —
   the query evaluated directly on the shared source in product with the
   user's visibility — must equal evaluating the same query on the
   view axioms 15-17 derive on the node map (Test_support.View_oracle),
   which shares no code with the snapshot, its visibility oracle or
   View.derive.  The oracle evaluates the query's rewrite-free form, so
   it does not share the evaluator's [//NAME[p]] rewrite either.  Failures
   shrink to a minimal triple (Test_support.Shrink) and are saved under
   $XMLSECU_SHRINK_DIR for the CI artifact upload.

   XMLSECU_REWRITE_SEED overrides the base seed so CI can sweep extra
   seeds without recompiling. *)

open Xmldoc
module D = Document
module Prng = Workload.Prng

let base_seed =
  match Sys.getenv_opt "XMLSECU_REWRITE_SEED" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n -> n
     | None -> 20250808)
  | None -> 20250808

let cases = 110
let user = "u"

(* ------------------------------------------------------------------ *)
(* Generators (the test_differential pool, minus the update op)        *)
(* ------------------------------------------------------------------ *)

let local_rule_paths =
  [
    "//node()"; "/patients"; "/patients/node()"; "//service"; "//diagnosis";
    "//diagnosis/node()"; "//visit"; "//visit/node()"; "//date"; "//note";
    "//service/node()"; "//text()"; "/patients/*";
  ]

let random_case seed =
  let rng = Prng.create seed in
  let rng, patients = Prng.int rng 5 in
  let rng, visits = Prng.int rng 3 in
  let config =
    {
      Workload.Gen_doc.patients = patients + 2;
      visits_per_patient = visits;
      diagnosed_fraction = 0.7;
      seed;
    }
  in
  let doc = Workload.Gen_doc.generate config in
  let rng, use_local = Prng.bool rng 0.5 in
  let _rng, rules = Prng.int rng 8 in
  let policy_config =
    { Workload.Gen_policy.rules = rules + 4; deny_fraction = 0.3; seed }
  in
  let policy =
    if use_local then
      Workload.Gen_policy.random ~paths:local_rule_paths policy_config
    else Workload.Gen_policy.random policy_config
  in
  (doc, policy)

(* Per case: a random query mix (downward and not), plus fixed probes —
   the RESTRICTED relabel (compiled path), a $USER query (fallback path,
   per-session variable binding), and positional predicates under [//],
   which the evaluator must not turn into descendant steps
   ([//visit[count(date) > 0]] is a comparison, so it may) — and the
   shapes of the anchored plan: an attribute step, unions of two
   anchors and of an anchor with a [*]-only branch (a scan), and a
   subtree anchor. *)
let queries_for seed =
  Workload.Gen_query.random ~seed ~count:4
  @ [ "//RESTRICTED"; "/patients/*[name() = $USER]"; "//visit[1]";
      "//visit[last()]"; "//visit[position() > 1]"; "//*[2]";
      "//visit[count(date) > 0]"; "//RESTRICTED[1]"; "//visit/@n";
      "//date | /patients/*/service"; "//note | //*";
      "/patients/*/visit//text()" ]

(* ------------------------------------------------------------------ *)
(* The differential oracle                                             *)
(* ------------------------------------------------------------------ *)

(* The rewrite-free form: a [self::node()] step spliced after every
   [descendant-or-self::node()] step selects the same nodes but never
   matches the evaluator's [//NAME[p]] -> [descendant::NAME[p]] pattern. *)
let rec no_rewrite (e : Xpath.Ast.expr) : Xpath.Ast.expr =
  let open Xpath.Ast in
  let steps =
    List.concat_map (fun (s : step) ->
        let s = { s with preds = List.map no_rewrite s.preds } in
        match s with
        | { axis = Descendant_or_self; test = Node_test; _ } ->
          [ s; { axis = Self; test = Node_test; preds = [] } ]
        | _ -> [ s ])
  in
  match e with
  | Or (a, b) -> Or (no_rewrite a, no_rewrite b)
  | And (a, b) -> And (no_rewrite a, no_rewrite b)
  | Cmp (op, a, b) -> Cmp (op, no_rewrite a, no_rewrite b)
  | Arith (op, a, b) -> Arith (op, no_rewrite a, no_rewrite b)
  | Neg a -> Neg (no_rewrite a)
  | Union (a, b) -> Union (no_rewrite a, no_rewrite b)
  | Call (f, args) -> Call (f, List.map no_rewrite args)
  | Path p -> Path { p with steps = steps p.steps }
  | Filter (a, preds, rest) ->
    Filter (no_rewrite a, List.map no_rewrite preds, steps rest)
  | Literal _ | Number _ | Var _ -> e

(* The rewrite through the snapshot-backed lazy view, both snapshot plans
   of a compiled query, the query on the View.derive materialisation,
   and the oracle: the rewrite-free form on the view derived on the node
   map.  Any disagreement fails.  The flag says whether the anchored plan
   ran. *)
let answers doc policy expr =
  let flat = Xmldoc.Flat.of_document doc in
  let session = Core.Session.login ~flat policy doc ~user in
  let vars = Core.Session.user_vars session in
  let on view e =
    List.map Ordpath.to_string
      (Xpath.Eval.select (Xpath.Eval.env ~vars view) e)
  in
  let oracle =
    on
      (Test_support.View_oracle.derive doc (Core.Session.perm session))
      (no_rewrite expr)
  in
  let plan = Core.Rewrite.plan expr in
  let via lv = List.map Ordpath.to_string (Core.Rewrite.select ~vars plan lv) in
  let snapshot = Core.Lazy_view.of_session flat session in
  let plans, anchored =
    if not (Core.Rewrite.compiled plan) then ([], false)
    else
      match Test_support.Read_plans.run expr snapshot with
      | scan, Some anchored ->
        ([ ("scan fold", scan); ("anchored fold", anchored) ], true)
      | scan, None -> ([ ("scan fold", scan) ], false)
  in
  let got =
    [ ("snapshot lazy view", via snapshot);
      ("materialised view", on (Core.Session.view session) expr) ]
    @ plans
  in
  (got, oracle, Core.Rewrite.compiled plan, anchored)

let disagreement got oracle =
  List.find_opt (fun (_, ids) -> ids <> oracle) got

let mismatch doc policy expr =
  match answers doc policy expr with
  | got, oracle, _, _ -> Option.is_some (disagreement got oracle)
  | exception _ -> true

let test_rewrite_differential () =
  let compiled = ref 0 and fallback = ref 0 and triples = ref 0 in
  let anchorable = ref 0 in
  for case = 0 to cases - 1 do
    let seed = base_seed + case in
    let doc, policy = random_case seed in
    List.iter
      (fun q ->
        incr triples;
        let expr = Xpath.Parser.parse_path q in
        let got, oracle, was_compiled, was_anchored = answers doc policy expr in
        incr (if was_compiled then compiled else fallback);
        if was_anchored then incr anchorable;
        match disagreement got oracle with
        | None -> ()
        | Some (where, got) ->
          let doc', policy', expr' =
            Test_support.Shrink.triple
              ~fails:(fun (d, p, e) -> mismatch d p e)
              (doc, policy, expr)
          in
          let text =
            Test_support.Shrink.render ~seed ~doc:doc' ~policy:policy'
              ~query:(Xpath.Ast.to_string expr')
              (Printf.sprintf
                 "%s disagrees with the derived view on %s (%s path):\n\
                 \  got  [%s]\n  view [%s]"
                 where q
                 (if was_compiled then "compiled" else "fallback")
                 (String.concat "; " got)
                 (String.concat "; " oracle))
          in
          Test_support.Shrink.save ~name:"rewrite" ~seed text;
          Alcotest.fail text)
      (queries_for seed)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "at least 1000 triples exercised (%d)" !triples)
    true (!triples >= 1000);
  (* The query pool must hit both the compiled product and the lazy-view
     fallback, or the test proves less than it claims. *)
  Alcotest.(check bool)
    (Printf.sprintf "both paths exercised (%d compiled / %d fallback)"
       !compiled !fallback)
    true
    (!compiled > 0 && !fallback > 0);
  (* Every anchorable compiled triple ran both snapshot plans. *)
  Alcotest.(check bool)
    (Printf.sprintf "at least 500 anchorable triples (%d)" !anchorable)
    true (!anchorable >= 500)

(* ------------------------------------------------------------------ *)
(* Adversarial cases                                                   *)
(* ------------------------------------------------------------------ *)

let subjects_u = Core.Subject.of_list [ (Core.Subject.User, user, []) ]
let policy_of rules = Core.Policy.v subjects_u rules

let adversarial_doc () =
  D.of_tree
    (Tree.element "root"
       [
         Tree.element "a" [ Tree.element "x" [ Tree.text "one" ] ];
         Tree.element "b" [ Tree.element "c" [ Tree.text "two" ] ];
         Tree.element "e" [ Tree.element "x" [ Tree.text "secret" ] ];
       ])

let select_strings doc policy q =
  let expr = Xpath.Parser.parse_path q in
  let got, oracle, _, _ = answers doc policy expr in
  List.iter
    (fun (where, ids) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s ≡ view on %s" where q)
        oracle ids)
    got;
  oracle

(* Overlapping allow/deny spans under axiom 14: the later rule wins, and
   a read grant below a hidden ancestor must NOT resurface the subtree
   (axiom 16 conditions visibility on the parent). *)
let test_overlapping_spans () =
  let doc = adversarial_doc () in
  let hidden_b =
    policy_of
      [
        Core.Rule.accept Core.Privilege.Read ~path:"//node()" ~subject:user
          ~priority:1;
        Core.Rule.deny Core.Privilege.Read ~path:"//b" ~subject:user
          ~priority:2;
        Core.Rule.accept Core.Privilege.Read ~path:"//b/c" ~subject:user
          ~priority:3;
      ]
  in
  Alcotest.(check (list string)) "b pruned" []
    (select_strings doc hidden_b "//b");
  (* c is read-granted but its parent is hidden: still unreachable. *)
  Alcotest.(check (list string)) "grant below a hidden span stays hidden" []
    (select_strings doc hidden_b "//c");
  Alcotest.(check (list string)) "straddling path /root/b/c" []
    (select_strings doc hidden_b "/root/b/c");
  (* Most-recent-wins, reversed: the later blanket grant overrides the
     earlier deny. *)
  let regranted =
    policy_of
      [
        Core.Rule.deny Core.Privilege.Read ~path:"//b" ~subject:user
          ~priority:1;
        Core.Rule.accept Core.Privilege.Read ~path:"//node()" ~subject:user
          ~priority:2;
      ]
  in
  Alcotest.(check int) "deny overridden by the most recent grant" 1
    (List.length (select_strings doc regranted "//b"))

(* Position-only nodes present RESTRICTED to the automaton's name tests:
   the real label must not match, the relabelled one must, and readable
   descendants below the RESTRICTED node stay visible. *)
let test_restricted_relabel () =
  let doc = adversarial_doc () in
  let policy =
    policy_of
      [
        Core.Rule.accept Core.Privilege.Read ~path:"//node()" ~subject:user
          ~priority:1;
        Core.Rule.deny Core.Privilege.Read ~path:"//e/x" ~subject:user
          ~priority:2;
        Core.Rule.accept Core.Privilege.Position ~path:"//e/x" ~subject:user
          ~priority:3;
      ]
  in
  (* //x must match only the readable x under a, not the RESTRICTED one. *)
  Alcotest.(check int) "real label hidden under position-only" 1
    (List.length (select_strings doc policy "//x"));
  Alcotest.(check int) "RESTRICTED label visible to name tests" 1
    (List.length (select_strings doc policy "//RESTRICTED"));
  (* The text below the position-only element is readable and reachable
     through it. *)
  Alcotest.(check int) "descendants of a RESTRICTED node survive" 1
    (List.length (select_strings doc policy "//e/RESTRICTED/text()"))

(* Write privileges never grant reads: a user holding insert, update and
   delete everywhere — but read/position nowhere — sees nothing. *)
let test_write_only_privileges () =
  let doc = adversarial_doc () in
  let policy =
    policy_of
      [
        Core.Rule.accept Core.Privilege.Insert ~path:"//node()" ~subject:user
          ~priority:1;
        Core.Rule.accept Core.Privilege.Update ~path:"//node()" ~subject:user
          ~priority:2;
        Core.Rule.accept Core.Privilege.Delete ~path:"//node()" ~subject:user
          ~priority:3;
      ]
  in
  Alcotest.(check (list string)) "write privileges leak nothing" []
    (select_strings doc policy "//node()")

(* Positional predicates under [//]: [//a[1]] is the first visible [a]
   child of every parent, [/descendant::a[1]] the first visible [a] of
   the whole view -- and positions count view nodes, not source nodes. *)
let test_positional_under_descendant () =
  let a text = Tree.element "a" [ Tree.text text ] in
  let doc =
    D.of_tree
      (Tree.element "r" [ a "1"; Tree.element "x" [ a "2"; a "3"; a "4" ] ])
  in
  let policy =
    policy_of
      [
        Core.Rule.accept Core.Privilege.Read ~path:"//node()" ~subject:user
          ~priority:1;
        Core.Rule.deny Core.Privilege.Read ~path:"/r/x/a[1]" ~subject:user
          ~priority:2;
      ]
  in
  let elements id =
    List.map
      (fun (n : Node.t) -> Ordpath.to_string n.id)
      (D.element_children doc id)
  in
  let a1, x =
    match D.root_element doc with
    | Some r -> (
      match elements r.id with
      | [ a1; x ] -> (a1, x)
      | _ -> Alcotest.fail "unexpected document shape")
    | None -> Alcotest.fail "no root element"
  in
  let a3, a4 =
    match elements (Ordpath.of_string x) with
    | [ _a2; a3; a4 ] -> (a3, a4)
    | _ -> Alcotest.fail "unexpected document shape"
  in
  List.iter
    (fun (q, expected) ->
      Alcotest.(check (list string)) q expected (select_strings doc policy q))
    [
      ("//a[1]", [ a1; a3 ]);
      ("/descendant::a[1]", [ a1 ]);
      ("//a[last()]", [ a1; a4 ]);
      ("//a[position() > 1]", [ a4 ]);
      ("//x/a[2]", [ a4 ]);
      ("//a[. = '3']", [ a3 ]);
      ("//a[not(position() = 1)]", [ a4 ]);
    ]

(* The anchored plan's edge cases: a candidate below a RESTRICTED
   ancestor (the chain feeds the automaton the view label, not the
   source one), attribute steps, nested candidates (an [a] inside an
   [a]: point anchors nest, subtree anchors fold into the outermost),
   unions of two anchors, and the queries that must scan — a name test
   asking for RESTRICTED, and a branch with no name test.  Every query
   runs through every read path against the View.derive oracle
   ([select_strings]); the counts pin the expected answers. *)
let test_anchor_probes () =
  let doc =
    D.of_tree
      (Tree.element "top"
         [
           Tree.element "a"
             [
               Tree.attr "id" "1";
               Tree.element "x" [ Tree.text "one" ];
               Tree.element "a"
                 [ Tree.element "x" [ Tree.text "nested" ];
                   Tree.element "b" [] ];
             ];
           Tree.element "e"
             [ Tree.attr "id" "2"; Tree.element "x" [ Tree.text "below" ] ];
           Tree.element "b" [ Tree.element "c" [ Tree.text "two" ] ];
         ])
  in
  let policy =
    policy_of
      [
        Core.Rule.accept Core.Privilege.Read ~path:"//node()" ~subject:user
          ~priority:1;
        Core.Rule.deny Core.Privilege.Read ~path:"//e" ~subject:user
          ~priority:2;
        Core.Rule.accept Core.Privilege.Position ~path:"//e" ~subject:user
          ~priority:3;
        Core.Rule.accept Core.Privilege.Read ~path:"//@*" ~subject:user
          ~priority:4;
      ]
  in
  List.iter
    (fun (q, expected) ->
      Alcotest.(check int) q expected
        (List.length (select_strings doc policy q)))
    [
      ("//x", 3);
      ("/top/e/x", 0);
      ("/top/*/x", 2);
      ("//RESTRICTED/x", 1);
      ("//RESTRICTED", 1);
      ("//a/@id", 1);
      ("//@id", 2);
      ("//a", 2);
      ("//a//x", 2);
      ("//a//b", 1);
      ("//a | //b", 4);
      ("//b | /*/*", 4);
    ];
  let flat = Flat.of_document doc in
  let names q =
    let auto = Xpath.Compile.compile [ ((), Xpath.Parser.parse_path q) ] in
    Option.map Xpath.Compile.anchor_names (Xpath.Compile.anchor auto flat)
  in
  let served q =
    Option.map Xpath.Compile.anchor_names
      (Core.Rewrite.anchor (Core.Rewrite.plan_str q) flat)
  in
  let check = Alcotest.(check (option (list string))) in
  check "//x anchors on its rows" (Some [ "x" ]) (served "//x");
  check "//a//x anchors on the rarer a's subtrees" (Some [ "a" ])
    (names "//a//x");
  check "a union anchors on both labels" (Some [ "a"; "b" ])
    (names "//a | //b");
  check "a branch without a name test scans" None (names "//b | /*/*");
  check "the posting lists cannot answer RESTRICTED" None
    (served "//RESTRICTED");
  check "nor a RESTRICTED step above a named one" None
    (served "//RESTRICTED/x")

(* ------------------------------------------------------------------ *)
(* Permission-equivalence classes (Serve)                              *)
(* ------------------------------------------------------------------ *)

let class_setup () =
  let config =
    { Workload.Gen_doc.patients = 6; visits_per_patient = 2;
      diagnosed_fraction = 0.8; seed = 42 }
  in
  let doc = Workload.Gen_doc.generate config in
  let patients =
    match Workload.Gen_doc.patient_names config with
    | p0 :: p1 :: _ -> [ p0; p1 ]
    | _ -> Alcotest.fail "generator produced fewer than 2 patients"
  in
  let secretaries = List.init 8 (Printf.sprintf "sec%d") in
  let doctors = List.init 8 (Printf.sprintf "doc%d") in
  let subjects =
    Core.Subject.of_list
      ([
         (Core.Subject.Role, "staff", []);
         (Core.Subject.Role, "secretary", [ "staff" ]);
         (Core.Subject.Role, "doctor", [ "staff" ]);
         (Core.Subject.Role, "patient", []);
       ]
      @ List.map (fun u -> (Core.Subject.User, u, [ "secretary" ])) secretaries
      @ List.map (fun u -> (Core.Subject.User, u, [ "doctor" ])) doctors
      @ List.map (fun u -> (Core.Subject.User, u, [ "patient" ])) patients)
  in
  let policy =
    Core.Policy.v subjects
      [
        Core.Rule.accept Core.Privilege.Read ~path:"//node()" ~subject:"staff"
          ~priority:10;
        Core.Rule.deny Core.Privilege.Read ~path:"//diagnosis/node()"
          ~subject:"secretary" ~priority:11;
        Core.Rule.accept Core.Privilege.Position ~path:"//diagnosis/node()"
          ~subject:"secretary" ~priority:12;
        Core.Rule.accept Core.Privilege.Read ~path:"/patients"
          ~subject:"patient" ~priority:13;
        Core.Rule.accept Core.Privilege.Read
          ~path:"/patients/*[name() = $USER]/descendant-or-self::node()"
          ~subject:"patient" ~priority:14;
        Core.Rule.accept Core.Privilege.Update ~path:"//diagnosis/node()"
          ~subject:"doctor" ~priority:15;
      ]
  in
  let users = secretaries @ doctors @ patients in
  let serve = Core.Serve.create policy doc in
  Core.Serve.login_many serve users;
  (serve, secretaries, doctors, patients, users)

(* Users with equal profiles collide into one class sharing one state;
   $USER users must NOT collide even though their rule lists coincide. *)
let test_class_collisions () =
  let serve, secretaries, doctors, patients, users = class_setup () in
  Alcotest.(check int) "18 sessions" (List.length users)
    (List.length (Core.Serve.users serve));
  (* secretaries + doctors + one singleton per patient *)
  Alcotest.(check int) "2 shared classes + 2 singletons" 4
    (Core.Serve.classes serve);
  (* Same-profile users share the lazy view physically... *)
  let lv u = Core.Serve.lazy_view serve ~user:u in
  Alcotest.(check bool) "secretaries share one lazy view" true
    (lv (List.nth secretaries 0) == lv (List.nth secretaries 7));
  Alcotest.(check bool) "doctors share one lazy view" true
    (lv (List.nth doctors 0) == lv (List.nth doctors 3));
  (* ...distinct profiles do not. *)
  Alcotest.(check bool) "secretary and doctor do not share" false
    (lv (List.hd secretaries) == lv (List.hd doctors));
  (match patients with
   | [ p0; p1 ] ->
     Alcotest.(check bool) "$USER patients are singletons" false
       (lv p0 == lv p1);
     (* Each patient sees their own record only — a collision here would
        leak one patient's data to the other. *)
     let record p = Core.Serve.query serve ~user:p "/patients/*" in
     Alcotest.(check bool) "patients see disjoint records" true
       (record p0 <> record p1)
   | _ -> assert false);
  (* Every member's served state equals a dedicated fresh login. *)
  List.iter
    (fun u ->
      let fresh =
        Core.Session.login (Core.Serve.policy serve) (Core.Serve.source serve)
          ~user:u
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: served view = fresh login view" u)
        true
        (D.equal (Core.Serve.view serve ~user:u) (Core.Session.view fresh));
      Alcotest.(check string) "session identity preserved" u
        (Core.Session.user (Core.Serve.session serve ~user:u)))
    users

(* Writes broadcast once per class, and every member still answers like a
   fresh login afterwards. *)
let test_class_broadcast () =
  let serve, secretaries, doctors, patients, users = class_setup () in
  List.iter
    (fun u -> ignore (Core.Serve.query serve ~user:u "//node()"))
    users;
  let writer = List.hd doctors in
  let report =
    Core.Serve.update serve ~user:writer
      (Xupdate.Op.update "//diagnosis" "cured")
  in
  Alcotest.(check bool) "doctor's update applied" true
    (Core.Secure_update.fully_applied report);
  List.iter
    (fun u ->
      let fresh =
        Core.Session.login (Core.Serve.policy serve) (Core.Serve.source serve)
          ~user:u
      in
      List.iter
        (fun q ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s: %s after broadcast" u q)
            (List.map Ordpath.to_string
               (Xpath.Eval.select_str
                  ~vars:(Core.Session.user_vars fresh)
                  (Core.Session.view fresh) q))
            (List.map Ordpath.to_string (Core.Serve.query serve ~user:u q)))
        [ "//node()"; "//diagnosis/node()"; "//RESTRICTED" ])
    users;
  (* Secretaries must not read the cure (position-only), doctors do. *)
  Alcotest.(check int) "secretary still sees RESTRICTED diagnoses" 0
    (List.length
       (Core.Serve.query serve ~user:(List.hd secretaries)
          "//diagnosis[node() = 'cured']"));
  Alcotest.(check bool) "doctor reads the cure" true
    (Core.Serve.query serve ~user:(List.hd doctors)
       "//diagnosis[node() = 'cured']"
     <> []);
  ignore patients

(* Logging the last member out drains the class. *)
let test_class_draining () =
  let serve, _, doctors, _, _ = class_setup () in
  let before = Core.Serve.classes serve in
  List.iter (fun u -> Core.Serve.logout serve ~user:u) doctors;
  Alcotest.(check int) "doctor class drained" (before - 1)
    (Core.Serve.classes serve);
  (* Logging one back in restores the class (fresh representative). *)
  Core.Serve.login serve ~user:(List.hd doctors);
  Alcotest.(check int) "class rebuilt on demand" before
    (Core.Serve.classes serve)

(* ------------------------------------------------------------------ *)
(* Served fallback reads on a Zipf document                           *)
(* ------------------------------------------------------------------ *)

(* The shape of the served read mix's fallbacks: [//a[b]] over Zipf
   labels on a wide Gen_large document, read by three reader roles that
   each hide a different part of it (one keeping the hidden elements as
   RESTRICTED) and by an editor holding every privilege.  Every class's
   served answers must equal Session.query on its (map-backed) view and
   the rewrite-free form, before and after a policy-only commit and a
   document commit. *)
let test_served_zipf_fallback () =
  let module G = Workload.Gen_large in
  let config =
    { G.default with G.target_nodes = 2_000; max_depth = 5; max_children = 8;
      seed = 5 }
  in
  let doc = G.generate config in
  let roles = [ "r0"; "r1"; "r2" ] in
  let subjects =
    Core.Subject.of_list
      ([ (Core.Subject.Role, "staff", []); (Core.Subject.Role, "editors", []);
         (Core.Subject.User, "ed", [ "editors" ]) ]
      @ List.concat_map
          (fun r ->
            [ (Core.Subject.Role, r, [ "staff" ]);
              (Core.Subject.User, "u" ^ r, [ r ]) ])
          roles)
  in
  let rule d p path subject priority =
    Core.Rule.v d p ~path ~subject ~priority
  in
  let open Core.Rule in
  let open Core.Privilege in
  let policy =
    Core.Policy.v subjects
      [ rule Accept Read "//node()" "staff" 1;
        rule Deny Read "//e1//node()" "r0" 2;
        rule Deny Read "//e1" "r0" 3;
        rule Accept Position "//e1" "r0" 4;
        rule Deny Read "//e3" "r1" 5;
        rule Deny Read "//e2/e4//node()" "r2" 6;
        rule Accept Position "//e2/e4//node()" "r2" 7;
        rule Accept Read "//node()" "editors" 8;
        rule Accept Update "//node()" "editors" 9;
        rule Accept Insert "//node()" "editors" 10;
        rule Accept Delete "//node()" "editors" 11 ]
  in
  let users = "ed" :: List.map (fun r -> "u" ^ r) roles in
  let serve = Core.Serve.create policy doc in
  Core.Serve.login_many serve users;
  Alcotest.(check int) "four permission classes" 4 (Core.Serve.classes serve);
  let rng = ref (Prng.create 17) in
  let label () =
    let r, l = G.sample_label config !rng in
    rng := r;
    l
  in
  let queries =
    "//RESTRICTED[text()]"
    :: List.init 30 (fun _ ->
           let a = label () in
           Printf.sprintf "//%s[%s]" a (label ()))
  in
  let check stage =
    let answered = ref 0 in
    List.iter
      (fun user ->
        let session = Core.Serve.session serve ~user in
        let view = Core.Session.view session in
        List.iter
          (fun q ->
            let strings = List.map Ordpath.to_string in
            let served = strings (Core.Serve.query serve ~user q) in
            if served <> [] then incr answered;
            Alcotest.(check (list string))
              (Printf.sprintf "%s: %s for %s = Session.query" stage q user)
              (strings (Core.Session.query session q))
              served;
            Alcotest.(check (list string))
              (Printf.sprintf "%s: %s for %s = rewrite-free form" stage q user)
              (strings
                 (Xpath.Eval.select
                    (Xpath.Eval.env ~vars:(Core.Session.user_vars session) view)
                    (no_rewrite (Xpath.Parser.parse_path q))))
              served)
          queries)
      users;
    Alcotest.(check bool)
      (Printf.sprintf "%s: some answers are non-empty (%d)" stage !answered)
      true (!answered > 0)
  in
  Alcotest.(check bool) "the reads take the fallback path" false
    (Core.Rewrite.compiled (Core.Rewrite.plan_str (List.nth queries 1)));
  check "initial";
  let commit ops =
    match Core.Serve.commit_ops serve ~user:"ed" ops with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Core.Txn.error_to_string e)
  in
  commit
    [ Core.Op.Policy
        (Core.Op.Add_rule
           (Core.Rule.deny Update ~path:"//e5" ~subject:"editors"
              ~priority:(Core.Serve.fresh_priority serve))) ];
  check "after a policy-only commit";
  commit
    [ Core.Op.Doc
        (Xupdate.Op.append "/*"
           (Tree.element (G.label_of_rank 0)
              [ Tree.element (G.label_of_rank 1) [ Tree.text "new" ] ]));
      Core.Op.Doc (Xupdate.Op.remove "/*/*[1]") ];
  check "after a document commit"

(* The served read mix's compiled shapes, [//a] and [//a/b] over Zipf
   labels, on a small Gen_large document: Rewrite.select on each
   class's served lazy view takes the anchored plan (the stats name the
   anchor labels) for all but the densest labels, and answers exactly
   like Session.query on the map-backed view — before and after a
   document commit that patches every class's oracle. *)
let test_served_anchored () =
  let module G = Workload.Gen_large in
  let config =
    { G.default with G.target_nodes = 2_000; max_depth = 5; max_children = 8;
      seed = 5 }
  in
  let doc = G.generate config in
  let subjects =
    Core.Subject.of_list
      [ (Core.Subject.Role, "staff", []);
        (Core.Subject.User, "ed", [ "staff" ]);
        (Core.Subject.User, "ur0", [ "staff" ]);
        (Core.Subject.User, "ur1", []) ]
  in
  let rule d p path subject priority =
    Core.Rule.v d p ~path ~subject ~priority
  in
  let open Core.Rule in
  let open Core.Privilege in
  let policy =
    Core.Policy.v subjects
      [ rule Accept Read "//node()" "staff" 1;
        rule Deny Read "//e1//node()" "ur0" 2;
        rule Deny Read "//e1" "ur0" 3;
        rule Accept Position "//e1" "ur0" 4;
        rule Accept Read "//node()" "ur1" 5;
        rule Deny Read "//e3" "ur1" 6;
        rule Accept Update "//node()" "ed" 7;
        rule Accept Insert "//node()" "ed" 8;
        rule Accept Delete "//node()" "ed" 9 ]
  in
  let users = [ "ed"; "ur0"; "ur1" ] in
  let serve = Core.Serve.create policy doc in
  Core.Serve.login_many serve users;
  let rng = ref (Prng.create 23) in
  let label () =
    let r, l = G.sample_label config !rng in
    rng := r;
    l
  in
  let queries =
    List.init 30 (fun k ->
        if k mod 2 = 0 then "//" ^ label ()
        else Printf.sprintf "//%s/%s" (label ()) (label ()))
  in
  let check stage =
    let anchored = ref 0 and total = ref 0 in
    List.iter
      (fun user ->
        let session = Core.Serve.session serve ~user in
        List.iter
          (fun q ->
            let stats = Xpath.Compile.stats () in
            let got =
              Core.Rewrite.select ~stats (Core.Rewrite.plan_str q)
                (Core.Serve.lazy_view serve ~user)
            in
            incr total;
            if stats.Xpath.Compile.anchors <> [] then incr anchored;
            Alcotest.(check (list string))
              (Printf.sprintf "%s: %s for %s = Session.query" stage q user)
              (List.map Ordpath.to_string (Core.Session.query session q))
              (List.map Ordpath.to_string got))
          queries)
      users;
    Alcotest.(check bool)
      (Printf.sprintf "%s: most reads anchored (%d of %d)" stage !anchored
         !total)
      true
      (2 * !anchored > !total)
  in
  check "initial";
  (match
     Core.Serve.commit_ops serve ~user:"ed"
       [ Core.Op.Doc
           (Xupdate.Op.append "/*"
              (Tree.element (G.label_of_rank 40)
                 [ Tree.element (G.label_of_rank 2) [ Tree.text "new" ] ]));
         Core.Op.Doc (Xupdate.Op.remove "/*/*[2]") ]
   with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Core.Txn.error_to_string e));
  Test_support.Snapshot_check.check_served "after a document commit" serve;
  check "after a document commit"

let () =
  Alcotest.run "rewrite"
    [
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf
               "%d seeded cases x 6 queries + 6 positional, rewrite = derive"
               cases)
            `Quick test_rewrite_differential;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "overlapping allow/deny spans, axiom 14" `Quick
            test_overlapping_spans;
          Alcotest.test_case "RESTRICTED relabel vs name tests" `Quick
            test_restricted_relabel;
          Alcotest.test_case "write-only privileges leak nothing" `Quick
            test_write_only_privileges;
          Alcotest.test_case "positional predicates under //" `Quick
            test_positional_under_descendant;
          Alcotest.test_case "anchored plan probes" `Quick test_anchor_probes;
        ] );
      ( "equivalence-classes",
        [
          Alcotest.test_case "collisions share, $USER stays singleton" `Quick
            test_class_collisions;
          Alcotest.test_case "broadcast rebases once per class" `Quick
            test_class_broadcast;
          Alcotest.test_case "logout drains classes" `Quick
            test_class_draining;
        ] );
      ( "served fallback",
        [
          Alcotest.test_case "Zipf //a[b] in every class across commits"
            `Quick test_served_zipf_fallback;
        ] );
      ( "served anchored",
        [
          Alcotest.test_case "Zipf //a and //a/b take the anchored plan"
            `Quick test_served_anchored;
        ] );
    ]
