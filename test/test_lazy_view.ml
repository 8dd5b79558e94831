(* Tests for the lazy (query-filtering) view of §5: every query answered
   through the virtual source over a snapshot and its visibility oracle
   must agree with the view axioms 15-17 derive on the node map
   (Test_support.View_oracle), and a rebase must carry the oracle along a
   commit's delta only while that is cheap. *)

open Xmldoc
module P = Core.Paper_example

let queries =
  [
    "/patients";
    "/patients/*";
    "//diagnosis";
    "//diagnosis/node()";
    "//service/text()";
    "//RESTRICTED";
    "/patients/*[service = 'pneumology']";
    "/patients/*[diagnosis/text()]";
    "//node()";
    "/patients/*[1]";
    "/patients/*[last()]/service";
    "//text()[. = 'RESTRICTED']";
    "//*[count(node()) > 1]";
    "/patients/franck/following-sibling::*";
    "//diagnosis/ancestor::*";
    "//diagnosis/..";
  ]

(* A user's lazy view over one snapshot of [doc], and the view the node
   map derives for the same permissions. *)
let lazy_and_oracle policy doc ~user =
  let flat = Flat.of_document doc in
  let session = Core.Session.login ~flat policy doc ~user in
  ( Core.Lazy_view.of_session flat session,
    Test_support.View_oracle.derive doc (Core.Session.perm session) )

let paper user = lazy_and_oracle P.policy (P.document ()) ~user

let agree_on_paper_example user =
  let lazy_view, view = paper user in
  List.iter
    (fun q ->
      let via_lazy = Core.Lazy_view.select_str lazy_view q in
      let via_view = Xpath.Eval.select_str view q in
      Alcotest.(check (list string))
        (Printf.sprintf "%s for %s" q user)
        (List.map Ordpath.to_string via_view)
        (List.map Ordpath.to_string via_lazy))
    queries

let test_agreement_secretary () = agree_on_paper_example P.beaufort
let test_agreement_patient () = agree_on_paper_example P.robert
let test_agreement_epidemiologist () = agree_on_paper_example P.richard
let test_agreement_doctor () = agree_on_paper_example P.laporte

let test_labels_and_visibility () =
  let doc = P.document () in
  let tonsillitis = P.find doc "tonsillitis" in
  let franck = P.find doc "franck" in
  let lv, _ = paper P.beaufort and lv2, _ = paper P.robert in
  Alcotest.(check (option string)) "restricted label" (Some "RESTRICTED")
    (Core.Lazy_view.label lv tonsillitis);
  Alcotest.(check (option string)) "plain label" (Some "franck")
    (Core.Lazy_view.label lv franck);
  Alcotest.(check (option string)) "document label" (Some "/")
    (Core.Lazy_view.label lv Ordpath.document);
  Alcotest.(check bool) "franck invisible to robert" false
    (Core.Lazy_view.visible lv2 franck);
  Alcotest.(check (option string)) "no label for invisible nodes" None
    (Core.Lazy_view.label lv2 franck)

let test_string_values_match () =
  (* string-value seen through the lazy view must match the materialised
     view (RESTRICTED text contributes the masked label). *)
  List.iter
    (fun user ->
      let lv, view = paper user in
      let src = Core.Lazy_view.source lv in
      Document.iter
        (fun (n : Node.t) ->
          Alcotest.(check string)
            (Printf.sprintf "string-value of %s for %s"
               (Ordpath.to_string n.id) user)
            (Document.string_value view n.id)
            (src.Xpath.Source.string_value n.id))
        view)
    [ P.beaufort; P.richard; P.robert ]

(* The snapshot's visibility oracle survives physically only an empty
   rebase onto the same snapshot; any other local rebase of a view that
   holds one patches it into fresh bytes, equal to the map derivation,
   and leaves the view it started from as it was. *)
let test_oracle_survival () =
  let doc = P.document () in
  let flat = Flat.of_document doc in
  let perm = Core.Perm.compute P.policy flat ~user:P.beaufort in
  let lv = Core.Lazy_view.create flat perm in
  let bytes lv = snd (Core.Lazy_view.flat_visibility lv) in
  let b0 = bytes lv in
  let lv = Core.Lazy_view.rebase lv flat perm Core.Delta.empty in
  Alcotest.(check bool) "empty delta, same snapshot: kept" true
    (bytes lv == b0);
  let refrozen = Flat.of_document doc in
  let lv' = Core.Lazy_view.rebase lv refrozen perm Core.Delta.empty in
  let b1 = bytes lv' in
  Alcotest.(check bool) "another snapshot: rebuilt" false (b1 == b0);
  Alcotest.(check bool) "rebuilt equal on an equal snapshot" true
    (Bytes.equal b1 b0);
  let lv =
    Core.Lazy_view.rebase lv' flat perm
      (Core.Delta.of_roots [ P.find doc "franck" ])
  in
  Alcotest.(check bool) "non-empty delta: patched at the rebase" true
    (Option.is_some (Core.Lazy_view.oracle lv));
  Alcotest.(check bool) "non-empty delta: rebuilt" false (bytes lv == b1);
  Alcotest.(check bool) "the patch equals the map derivation" true
    (Bytes.equal (bytes lv)
       (Test_support.View_oracle.visibility flat doc perm));
  Alcotest.(check bool) "the rebased-from view keeps its oracle" true
    (bytes lv' == b1)

(* A commit along a delta patches a held oracle only while the patch is
   cheap: on a document of some 10k rows a delta covering most of them
   drops the oracle (the next read rebuilds it), while a small one is
   patched.  Either way the oracle then read equals a fresh build on the
   new snapshot — for a relabel, an insert and a removal. *)
let test_oracle_patch_limit () =
  let module G = Workload.Gen_large in
  let doc =
    G.generate
      { G.default with G.target_nodes = 10_000; max_depth = 5;
        max_children = 8; seed = 3 }
  in
  let subjects =
    Core.Subject.of_list [ (Core.Subject.User, "u", []) ]
  in
  let policy =
    Core.Policy.v subjects
      [ Core.Rule.accept Core.Privilege.Read ~path:"//node()" ~subject:"u"
          ~priority:1;
        Core.Rule.deny Core.Privilege.Read ~path:"//e2" ~subject:"u"
          ~priority:2;
        Core.Rule.accept Core.Privilege.Position ~path:"//e2" ~subject:"u"
          ~priority:3;
        Core.Rule.deny Core.Privilege.Read ~path:"//e5" ~subject:"u"
          ~priority:4 ]
  in
  let flat = Flat.of_document doc in
  let perm = Core.Perm.compute policy flat ~user:"u" in
  let held lv = Option.is_some (Core.Lazy_view.oracle lv) in
  let fresh () =
    let lv = Core.Lazy_view.create flat perm in
    ignore (Core.Lazy_view.flat_visibility lv);
    lv
  in
  let root =
    match Document.root_element doc with
    | Some n -> n.id
    | None -> Alcotest.fail "no root element"
  in
  let lv =
    Core.Lazy_view.rebase (fresh ()) flat perm (Core.Delta.of_roots [ root ])
  in
  Alcotest.(check bool) "a delta over most rows drops the oracle" false
    (held lv);
  let step name op =
    let lv = fresh () in
    let outcome = Xupdate.Apply.apply doc op in
    let doc' = outcome.Xupdate.Apply.doc in
    let delta = Core.Delta.of_roots (Xupdate.Apply.affected_roots outcome) in
    let flat' = Flat.of_document doc' in
    let perm' = Core.Perm.update ~flat:flat' perm policy doc' delta in
    let lv' = Core.Lazy_view.rebase lv flat' perm' delta in
    Alcotest.(check bool) (name ^ ": patched") true (held lv');
    Alcotest.(check bool) (name ^ ": patch = map derivation") true
      (Bytes.equal
         (snd (Core.Lazy_view.flat_visibility lv'))
         (Test_support.View_oracle.visibility flat' doc' perm'))
  in
  step "relabel" (Xupdate.Op.rename "/*/*[3]" "e2");
  step "insert"
    (Xupdate.Op.append "/*/*[5]"
       (Tree.element "e5" [ Tree.element "e1" [ Tree.text "x" ] ]));
  step "remove" (Xupdate.Op.remove "/*/*[7]")

(* Every axis of the snapshot-backed source, at every node of the view,
   answers exactly like the map-derived view's own source: same nodes,
   same order, same (remapped) labels.  Hidden nodes are not found. *)
let test_snapshot_axes () =
  for seed = 0 to 39 do
    let config =
      { Workload.Gen_doc.patients = 2 + (seed mod 4);
        visits_per_patient = seed mod 3; diagnosed_fraction = 0.7; seed }
    in
    let doc = Workload.Gen_doc.generate config in
    let policy =
      Workload.Gen_policy.random
        { Workload.Gen_policy.rules = 4 + (seed mod 6); deny_fraction = 0.3;
          seed }
    in
    let lv, view = lazy_and_oracle policy doc ~user:"u" in
    let got = Core.Lazy_view.source lv in
    let want = Xpath.Source.of_document view in
    let show ns =
      List.map
        (fun (n : Node.t) ->
          Printf.sprintf "%s:%s" (Ordpath.to_string n.id) n.label)
        ns
    in
    let check what id f =
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: %s of %s" seed what (Ordpath.to_string id))
        (show (f want id)) (show (f got id))
    in
    let one f src id = Option.to_list (f src id) in
    Document.iter
      (fun (n : Node.t) ->
        let id = n.id in
        check "find" id (one (fun s -> s.Xpath.Source.find));
        check "parent" id (one (fun s -> s.Xpath.Source.parent));
        List.iter
          (fun (what, f) -> check what id f)
          Xpath.Source.
            [ ("children", fun s -> s.children);
              ("descendants", fun s -> s.descendants);
              ("descendant-or-self", fun s -> s.descendant_or_self);
              ("ancestors", fun s -> s.ancestors);
              ("ancestor-or-self", fun s -> s.ancestor_or_self);
              ("following-siblings", fun s -> s.following_siblings);
              ("preceding-siblings", fun s -> s.preceding_siblings);
              ("following", fun s -> s.following);
              ("preceding", fun s -> s.preceding);
              ("attributes", fun s -> s.attributes) ];
        Alcotest.(check string)
          (Printf.sprintf "seed %d: string-value of %s" seed
             (Ordpath.to_string id))
          (want.Xpath.Source.string_value id)
          (got.Xpath.Source.string_value id))
      view;
    Document.iter
      (fun (n : Node.t) ->
        if not (Document.mem view n.id) then
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: hidden %s not found" seed
               (Ordpath.to_string n.id))
            true
            (got.Xpath.Source.find n.id = None))
      doc;
    let labels =
      Core.View.restricted :: "absent"
      :: Document.fold (fun (n : Node.t) acc -> n.label :: acc) doc []
      |> List.sort_uniq String.compare
    in
    let by_label src l = show (src.Xpath.Source.by_label l) in
    List.iter
      (fun l ->
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d: by_label %s" seed l)
          (by_label want l) (by_label got l))
      labels
  done

(* Differential property over random documents, policies and queries. *)
let label_pool = [ "a"; "b"; "c"; "d" ]

let doc_gen =
  QCheck.Gen.(
    let rec tree depth =
      if depth = 0 then map Tree.text (oneofl [ "x"; "y"; "z" ])
      else
        frequency
          [
            (1, map Tree.text (oneofl [ "x"; "y"; "z" ]));
            ( 3,
              map2 Tree.element (oneofl label_pool)
                (list_size (int_range 0 3) (tree (depth - 1))) );
          ]
    in
    map
      (fun kids -> Document.of_tree (Tree.element "root" kids))
      (list_size (int_range 0 4) (tree 2)))

let query_pool =
  [
    "//node()"; "//a"; "//b/node()"; "//text()"; "/root/*"; "//RESTRICTED";
    "//a[b]"; "//*[text() = 'x']"; "/root/*[1]"; "//c/ancestor::*";
    "//*[. = 'RESTRICTED']"; "//a/following-sibling::node()";
  ]

let prop_lazy_equals_materialized =
  QCheck.Test.make ~count:150
    ~name:"lazy view answers = materialised view answers"
    (QCheck.make
       ~print:(fun (doc, seed, q) ->
         Xml_print.to_string doc ^ Printf.sprintf " seed=%d q=%s" seed q)
       QCheck.Gen.(triple doc_gen (int_range 0 10000) (oneofl query_pool)))
    (fun (doc, seed, q) ->
      let rule_paths =
        [ "//node()"; "/root"; "/root/node()"; "//text()"; "//a"; "//b";
          "//c/node()"; "//d"; "/root/a"; "//a/node()" ]
      in
      let policy =
        Workload.Gen_policy.random ~paths:rule_paths
          { rules = 8; deny_fraction = 0.4; seed }
      in
      let lv, view = lazy_and_oracle policy doc ~user:"u" in
      Core.Lazy_view.select_str lv q = Xpath.Eval.select_str view q)

(* The tree axes leave attribute values (the text children of attribute
   nodes) to the attribute axis on every source, and only a text
   candidate is asked for its parent to tell: a positional child path
   over elements makes no [parent] call on the map, the snapshot or the
   lazy view. *)
let test_attribute_values_off_tree () =
  let doc =
    Xml_parse.of_string
      {|<r k="v0"><a k="v1">x<b k="v2">y</b></a><a k="v3"><b>z</b><b k="v4"/></a></r>|}
  in
  let values =
    Document.fold
      (fun (n : Node.t) acc ->
        match Document.parent doc n.id with
        | Some p when n.kind = Node.Text && p.kind = Node.Attribute ->
          n.id :: acc
        | _ -> acc)
      doc []
  in
  Alcotest.(check int) "the document carries five attribute values" 5
    (List.length values);
  let nth_element id i = (List.nth (Document.element_children doc id) i).Node.id in
  let r = nth_element Ordpath.document 0 in
  let expected = [ Ordpath.to_string (nth_element (nth_element r 1) 0) ] in
  let flat = Flat.of_document doc in
  let policy =
    Core.Policy_lang.parse
      "user u\ngrant read on //node() to u priority 1\n\
       grant read on //@* to u priority 2\n"
  in
  let lv =
    Core.Lazy_view.of_session flat (Core.Session.login ~flat policy doc ~user:"u")
  in
  List.iter
    (fun (name, (src : Xpath.Source.t)) ->
      let calls = ref 0 in
      let src =
        { src with parent = (fun id -> incr calls; src.parent id) }
      in
      let select q =
        Xpath.Eval.select (Xpath.Eval.env_of_source src)
          (Xpath.Parser.parse_path q)
      in
      Alcotest.(check (list string))
        (name ^ ": positional child path") expected
        (List.map Ordpath.to_string (select "/r/*[2]/*[1]"));
      Alcotest.(check int) (name ^ ": no parent lookup") 0 !calls;
      List.iter
        (fun q ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s returns no attribute value" name q)
            false
            (List.exists (fun id -> List.mem id values) (select q)))
        [ "//node()"; "//text()"; "//@k/child::node()"; "/r/@k/node()" ])
    [ ("map", Xpath.Source.of_document doc);
      ("snapshot", Xpath.Source.of_flat flat);
      ("lazy view", Core.Lazy_view.source lv) ]

let () =
  Alcotest.run "lazy_view"
    [
      ( "agreement",
        [
          Alcotest.test_case "secretary" `Quick test_agreement_secretary;
          Alcotest.test_case "patient" `Quick test_agreement_patient;
          Alcotest.test_case "epidemiologist" `Quick
            test_agreement_epidemiologist;
          Alcotest.test_case "doctor" `Quick test_agreement_doctor;
          Alcotest.test_case "string values" `Quick test_string_values_match;
          Alcotest.test_case "snapshot source axes" `Quick test_snapshot_axes;
          Alcotest.test_case "attribute values stay off the tree axes"
            `Quick test_attribute_values_off_tree;
        ] );
      ( "laziness",
        [
          Alcotest.test_case "labels and visibility" `Quick
            test_labels_and_visibility;
          Alcotest.test_case "oracle survives only empty same-snapshot rebases"
            `Quick test_oracle_survival;
          Alcotest.test_case "oracle patches stay cheap" `Quick
            test_oracle_patch_limit;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_lazy_equals_materialized ] );
    ]
