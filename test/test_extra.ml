(* Additional edge-case coverage across ordpath, xmldoc, datalog and the
   core security model. *)

open Xmldoc
module P = Core.Paper_example

(* --- ordpath -------------------------------------------------------------- *)

let test_ordpath_of_string_errors () =
  List.iter
    (fun s ->
      match Ordpath.of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "of_string %S should fail" s)
    [ ""; "a"; "1.x"; "2"; "1.2"; "1..3" ]

let test_ordpath_relationship_consistency () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300
       ~name:"relationship agrees with compare and prefixing"
       (let level =
          QCheck.Gen.(
            list_size (int_range 0 1) (map (fun i -> 2 * i) (int_range 0 3))
            >>= fun evens ->
            map (fun i -> evens @ [ (2 * i) + 1 ]) (int_range 0 3))
        in
        let label =
          QCheck.Gen.(map List.concat (list_size (int_range 0 3) level))
        in
        QCheck.make
          ~print:(fun (a, b) ->
            Ordpath.to_string (Ordpath.of_components a)
            ^ " vs "
            ^ Ordpath.to_string (Ordpath.of_components b))
          QCheck.Gen.(pair label label))
       (fun (a, b) ->
         let a = Ordpath.of_components a and b = Ordpath.of_components b in
         match Ordpath.relationship a b with
         | `Self -> Ordpath.equal a b
         | `Ancestor -> Ordpath.is_ancestor ~ancestor:b a
         | `Descendant -> Ordpath.is_ancestor ~ancestor:a b
         | `Preceding ->
           Ordpath.compare b a < 0 && not (Ordpath.is_ancestor ~ancestor:b a)
         | `Following ->
           Ordpath.compare a b < 0 && not (Ordpath.is_ancestor ~ancestor:a b)))

let test_ordpath_between_bounds () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"between respects both bounds"
       (QCheck.make ~print:QCheck.Print.(pair int int)
          QCheck.Gen.(pair (int_range 0 20) (int_range 0 20)))
       (fun (i, j) ->
         let parent = Ordpath.root in
         (* Build an increasing run of children, then split gap (i, j). *)
         let children =
           let rec go last n acc =
             if n = 0 then List.rev acc
             else
               let c = Ordpath.append_after parent ~last in
               go (Some c) (n - 1) (c :: acc)
           in
           go None 22 []
         in
         let lo = min i j and hi = max i j + 1 in
         let left = List.nth children lo and right = List.nth children hi in
         let m = Ordpath.between ~left ~right in
         Ordpath.compare left m < 0
         && Ordpath.compare m right < 0
         && Ordpath.is_child ~parent m))

(* --- xmldoc --------------------------------------------------------------- *)

let test_of_forest () =
  let d =
    Document.of_forest
      [ Tree.comment "header"; Tree.element "root" [ Tree.text "x" ];
        Tree.comment "footer" ]
  in
  Alcotest.(check int) "document-level nodes" 3
    (List.length (Document.children d Ordpath.document));
  Alcotest.(check (option string)) "root element found" (Some "root")
    (Option.map (fun (n : Node.t) -> n.label) (Document.root_element d));
  (* to_tree of the document node only works for a single top-level. *)
  Alcotest.(check bool) "to_tree of multi-top document" true
    (Document.to_tree d Ordpath.document = None)

let test_parse_options () =
  let src = "<a> <b/> keep <!--c--> </a>" in
  let stripped = Xml_parse.of_string src in
  (* document, a, b and the non-blank " keep " text survive. *)
  Alcotest.(check int) "whitespace-only text dropped" 4 (Document.size stripped);
  let kept =
    Xml_parse.of_string ~strip_whitespace:false ~keep_comments:true src
  in
  (* document, a, 3 text runs, b, comment *)
  Alcotest.(check int) "everything kept" 7 (Document.size kept);
  let comments =
    List.filter (fun (n : Node.t) -> n.kind = Node.Comment) (Document.nodes kept)
  in
  Alcotest.(check (list string)) "comment content" [ "c" ]
    (List.map (fun (n : Node.t) -> n.label) comments)

let test_parse_prolog_and_pi () =
  let d =
    Xml_parse.of_string
      {|<?xml version="1.0" encoding="UTF-8"?>
<!-- leading comment -->
<!DOCTYPE a [ <!ELEMENT a ANY> ]>
<?target instruction?>
<a><?skip me?>x</a>
<!-- trailing comment -->|}
  in
  let a = Option.get (Document.root_element d) in
  Alcotest.(check string) "content survives prolog" "x"
    (Document.string_value d a.id)

let test_unicode_references () =
  let d = Xml_parse.of_string "<a>&#233;t&#xE9; &#x1F600;</a>" in
  let a = Option.get (Document.root_element d) in
  Alcotest.(check string) "decoded UTF-8" "été 😀" (Document.string_value d a.id)

let test_add_subtree_argument_errors () =
  let d = P.document () in
  let franck = P.find d "franck" in
  let robert = P.find d "robert" in
  (match
     Document.add_subtree d ~parent:(Ordpath.of_string "9.9")
       ~left:None ~right:None (Tree.element "x" [])
   with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "unknown parent must be rejected");
  (match
     Document.add_subtree d ~parent:franck ~left:(Some robert) ~right:None
       (Tree.element "x" [])
   with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "foreign bound must be rejected")

let test_remove_document_node_ignored () =
  let d = P.document () in
  Alcotest.(check bool) "removing / is a no-op" true
    (Document.equal d (Document.remove_subtree d Ordpath.document))

(* --- datalog -------------------------------------------------------------- *)

let test_datalog_zero_arity () =
  let prog = Datalog.Parse.program "winter. cold :- winter. warm :- summer." in
  let db = Datalog.Eval.solve Datalog.Db.empty prog in
  Alcotest.(check bool) "cold derived" true
    (Datalog.Db.mem db (Datalog.Parse.atom "cold"));
  Alcotest.(check bool) "warm not derived" false
    (Datalog.Db.mem db (Datalog.Parse.atom "warm"))

let test_datalog_print_parse_roundtrip () =
  let clauses =
    [
      "p(X) :- q(X, 'hello world'), not r(X).";
      "fact('with \\' quote').";
      "cmp(X, Y) :- n(X), n(Y), X >= Y.";
      "edge(a-b, 7).";
    ]
  in
  List.iter
    (fun src ->
      let c = Datalog.Parse.clause src in
      let printed = Datalog.Clause.to_string c in
      let c' = Datalog.Parse.clause printed in
      Alcotest.(check bool) (Printf.sprintf "roundtrip %s" src) true
        (Datalog.Clause.equal c c'))
    clauses

let test_datalog_query_api () =
  let edb =
    List.fold_left
      (fun db s -> Datalog.Db.add db (Datalog.Parse.atom s))
      Datalog.Db.empty
      [ "parent(tom, bob)"; "parent(bob, ann)"; "parent(bob, joe)" ]
  in
  let prog =
    Datalog.Parse.program
      "anc(X, Y) :- parent(X, Y). anc(X, Z) :- parent(X, Y), anc(Y, Z)."
  in
  let result =
    Datalog.Eval.query edb prog "anc"
      [ Datalog.Term.Sym "tom"; Datalog.Term.Var "Z" ]
  in
  Alcotest.(check int) "tom's descendants" 3 (List.length result)

let test_datalog_eq_ne_builtins () =
  let edb =
    List.fold_left
      (fun db s -> Datalog.Db.add db (Datalog.Parse.atom s))
      Datalog.Db.empty
      [ "n(a)"; "n(b)" ]
  in
  let prog =
    Datalog.Parse.program
      "same(X, Y) :- n(X), n(Y), X = Y. diff(X, Y) :- n(X), n(Y), X != Y."
  in
  let db = Datalog.Eval.solve edb prog in
  Alcotest.(check int) "2 same" 2 (List.length (Datalog.Db.facts db "same"));
  Alcotest.(check int) "2 diff" 2 (List.length (Datalog.Db.facts db "diff"))

let test_datalog_int_string_order () =
  (* Terms order: Sym < Int in comparisons never mix in practice, but the
     engine must stay total. *)
  let edb =
    List.fold_left
      (fun db s -> Datalog.Db.add db (Datalog.Parse.atom s))
      Datalog.Db.empty
      [ "v(1)"; "v(2)"; "v(x)" ]
  in
  let prog = Datalog.Parse.program "big(X) :- v(X), X > 1." in
  let db = Datalog.Eval.solve edb prog in
  Alcotest.(check bool) "2 > 1" true
    (Datalog.Db.mem db (Datalog.Parse.atom "big(2)"))

(* --- core ------------------------------------------------------------------ *)

let test_policy_revoke () =
  let p = P.policy in
  let p' = Core.Policy.revoke p ~priority:11 in
  Alcotest.(check int) "one fewer rule"
    (List.length (Core.Policy.rules p) - 1)
    (List.length (Core.Policy.rules p'));
  (* Without the deny, the secretary reads diagnosis contents again. *)
  let session = Core.Session.login p' (P.document ()) ~user:P.beaufort in
  Alcotest.(check int) "secretary reads diagnosis text now" 2
    (List.length (Core.Session.query session "//diagnosis/text()"));
  Alcotest.(check bool) "unknown priority ignored" true
    (Core.Policy.rules (Core.Policy.revoke p ~priority:999)
     = Core.Policy.rules p)

let test_rules_for_closure () =
  let for_beaufort = Core.Policy.rules_for P.policy ~user:P.beaufort in
  (* staff rules (1) + secretary rules (2, 3, 8, 9) *)
  Alcotest.(check int) "secretary inherits staff rules" 5
    (List.length for_beaufort);
  let for_robert = Core.Policy.rules_for P.policy ~user:P.robert in
  Alcotest.(check int) "patients get rules 4-5" 2 (List.length for_robert)

(* The rule index against the per-rule closure it replaces.  Seeded
   hierarchies of four levels (three roles, four roles below them, four
   below those, eight users at the bottom), each subject isa one or two
   subjects of any level above it, which makes diamonds; thirty rules
   over every subject, some with predicates or $USER.  After the build
   and after each of twelve add_isa/remove_isa edits, every subject's
   indexed rules, its rules_for list and its profile equal what the
   per-rule [Subject.isa] filter gives. *)
let test_rule_index () =
  let module Prng = Workload.Prng in
  let paths =
    [ "//node()"; "/patients/*"; "//diagnosis/node()"; "//visit";
      "//service/text()"; "//visit[@n = 1]";
      "/patients/*[name() = $USER]/descendant-or-self::node()" ]
  in
  let prios = List.map (fun (r : Core.Rule.t) -> r.priority) in
  let check what policy =
    let subjects = Core.Policy.subjects policy in
    let index = Core.Policy.index policy in
    List.iter
      (fun user ->
        let what = Printf.sprintf "%s, %s" what user in
        let want =
          List.filter
            (fun (r : Core.Rule.t) -> Core.Subject.isa subjects user r.subject)
            (Core.Policy.rules policy)
        in
        let applicable = Core.Policy.applicable index ~user in
        let indexed =
          List.filteri
            (fun i r ->
              if Core.Policy.rule_at index i != r then
                Alcotest.failf "%s: rule_at %d is not the policy's rule" what i;
              Core.Policy.mem applicable i)
            (Core.Policy.rules policy)
        in
        Alcotest.(check (list int)) (what ^ ": indexed rules") (prios want)
          (prios indexed);
        Alcotest.(check (list int)) (what ^ ": rules_for") (prios want)
          (prios (Core.Policy.rules_for policy ~user));
        Alcotest.(check bool) (what ^ ": local")
          (Core.Delta.local_rules want)
          (Core.Policy.local applicable);
        let profile =
          String.concat "" (List.map (Printf.sprintf "%d;") (prios want))
          ^
          if List.exists Core.Rule.uses_user_variable want then "$" ^ user
          else ""
        in
        Alcotest.(check string) (what ^ ": profile") profile
          (Core.Perm.profile policy ~user))
      ("nobody" :: Core.Subject.subjects subjects)
  in
  for case = 0 to 39 do
    let seed = 7100 + case in
    let rng = ref (Prng.create seed) in
    let draw f =
      let r, x = f !rng in
      rng := r;
      x
    in
    let levels =
      [| List.init 3 (Printf.sprintf "a%d");
         List.init 4 (Printf.sprintf "b%d");
         List.init 4 (Printf.sprintf "c%d");
         List.init 8 (Printf.sprintf "u%d") |]
    in
    let above l = List.concat (Array.to_list (Array.sub levels 0 l)) in
    let subjects =
      Array.to_list levels
      |> List.mapi (fun l names ->
             List.map
               (fun name ->
                 let kind =
                   if l = 3 then Core.Subject.User else Core.Subject.Role
                 in
                 let supers =
                   if l = 0 then []
                   else
                     List.sort_uniq String.compare
                       (List.init
                          (1 + draw (fun r -> Prng.int r 2))
                          (fun _ -> draw (fun r -> Prng.pick r (above l))))
                 in
                 (kind, name, supers))
               names)
      |> List.concat |> Core.Subject.of_list
    in
    let all = Core.Subject.subjects subjects in
    let rules =
      List.init 30 (fun i ->
          Core.Rule.v
            (if draw (fun r -> Prng.bool r 0.3) then Core.Rule.Deny
             else Core.Rule.Accept)
            (draw (fun r -> Prng.pick r Core.Privilege.all))
            ~path:(draw (fun r -> Prng.pick r paths))
            ~subject:(draw (fun r -> Prng.pick r all))
            ~priority:(i + 1))
    in
    let policy = ref (Core.Policy.v subjects rules) in
    check (Printf.sprintf "seed %d" seed) !policy;
    for edit = 1 to 12 do
      let l = 1 + draw (fun r -> Prng.int r 3) in
      let sub = draw (fun r -> Prng.pick r levels.(l)) in
      let super = draw (fun r -> Prng.pick r (above l)) in
      let subjects = Core.Policy.subjects !policy in
      policy :=
        if Core.Subject.has_isa_edge subjects ~sub ~super then
          Core.Policy.remove_isa !policy ~sub ~super
        else Core.Policy.add_isa !policy ~sub ~super;
      check (Printf.sprintf "seed %d, edit %d" seed edit) !policy
    done
  done

let test_view_of_user_without_rules () =
  let subjects = Core.Subject.of_list [ (Core.Subject.User, "ghost", []) ] in
  let policy = Core.Policy.v subjects [] in
  let session = Core.Session.login policy (P.document ()) ~user:"ghost" in
  Alcotest.(check int) "empty view" 0
    (Core.View.visible_count (Core.Session.view session))

let test_rule_on_document_node () =
  let subjects = Core.Subject.of_list [ (Core.Subject.User, "u", []) ] in
  let policy =
    Core.Policy.v subjects []
    |> fun p -> Core.Policy.grant p Core.Privilege.Read ~path:"/" ~subject:"u"
  in
  let session = Core.Session.login policy (P.document ()) ~user:"u" in
  (* The document node is always in the view anyway; granting read on it
     changes nothing below. *)
  Alcotest.(check int) "still empty below /" 0
    (Core.View.visible_count (Core.Session.view session))

let test_apply_all_reports () =
  let session = P.login P.laporte in
  let ops =
    [
      Xupdate.Op.update "/patients/franck/diagnosis" "a";
      Xupdate.Op.update "/patients/franck/diagnosis" "b";
      Xupdate.Op.remove "//diagnosis/node()";
    ]
  in
  let session, reports = Core.Secure_update.apply_all session ops in
  Alcotest.(check int) "three reports" 3 (List.length reports);
  Alcotest.(check bool) "all applied" true
    (List.for_all Core.Secure_update.fully_applied reports);
  Alcotest.(check int) "no diagnosis text left" 0
    (List.length (Core.Session.query session "//diagnosis/text()"))

let test_view_updates_after_secure_write () =
  (* The session's view refreshes after each write: a doctor's update is
     immediately reflected in what the doctor (and others) see. *)
  let doctor = P.login P.laporte in
  let doctor, _ =
    Core.Secure_update.apply doctor
      (Xupdate.Op.update "/patients/robert/diagnosis" "cured")
  in
  Alcotest.(check int) "doctor sees the new text" 1
    (List.length (Core.Session.query doctor "//text()[. = 'cured']"));
  let secretary =
    Core.Session.login P.policy (Core.Session.source doctor) ~user:P.beaufort
  in
  Alcotest.(check int) "secretary still sees RESTRICTED" 2
    (List.length (Core.Session.query secretary "//diagnosis/node()"));
  Alcotest.(check int) "secretary cannot see the word" 0
    (List.length (Core.Session.query secretary "//text()[. = 'cured']"))

let test_deciding_rule_exposed () =
  let session = P.login P.beaufort in
  let perm = Core.Session.perm session in
  let tonsillitis = P.find (Core.Session.source session) "tonsillitis" in
  (match Core.Perm.deciding_rule perm Core.Privilege.Read tonsillitis with
   | Some r ->
     Alcotest.(check int) "read decided by rule 11" 11 r.priority;
     Alcotest.(check string) "a deny" "deny" (Core.Rule.decision_to_string r.decision)
   | None -> Alcotest.fail "expected a deciding rule");
  Alcotest.(check (option Alcotest.reject)) "no rule for insert on text"
    None
    (Core.Perm.deciding_rule perm Core.Privilege.Insert tonsillitis
     |> Option.map (fun _ -> Alcotest.fail "unexpected rule"))

let test_subject_kind_conflict () =
  let s = Core.Subject.add_role Core.Subject.empty "x" in
  match Core.Subject.add_user s "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "conflicting redeclaration must fail"

let () =
  Alcotest.run "extra"
    [
      ( "ordpath",
        [
          Alcotest.test_case "of_string errors" `Quick
            test_ordpath_of_string_errors;
          Alcotest.test_case "relationship consistency" `Quick
            test_ordpath_relationship_consistency;
          Alcotest.test_case "between bounds" `Quick test_ordpath_between_bounds;
        ] );
      ( "xmldoc",
        [
          Alcotest.test_case "of_forest" `Quick test_of_forest;
          Alcotest.test_case "parse options" `Quick test_parse_options;
          Alcotest.test_case "prolog and PIs" `Quick test_parse_prolog_and_pi;
          Alcotest.test_case "unicode references" `Quick test_unicode_references;
          Alcotest.test_case "add_subtree errors" `Quick
            test_add_subtree_argument_errors;
          Alcotest.test_case "remove document node" `Quick
            test_remove_document_node_ignored;
        ] );
      ( "datalog",
        [
          Alcotest.test_case "zero arity" `Quick test_datalog_zero_arity;
          Alcotest.test_case "print/parse roundtrip" `Quick
            test_datalog_print_parse_roundtrip;
          Alcotest.test_case "query API" `Quick test_datalog_query_api;
          Alcotest.test_case "eq/ne builtins" `Quick test_datalog_eq_ne_builtins;
          Alcotest.test_case "mixed term order" `Quick
            test_datalog_int_string_order;
        ] );
      ( "core",
        [
          Alcotest.test_case "policy revoke" `Quick test_policy_revoke;
          Alcotest.test_case "rules_for closure" `Quick test_rules_for_closure;
          Alcotest.test_case "rule index = per-rule closure" `Quick
            test_rule_index;
          Alcotest.test_case "no-rule user" `Quick test_view_of_user_without_rules;
          Alcotest.test_case "rule on document node" `Quick
            test_rule_on_document_node;
          Alcotest.test_case "apply_all" `Quick test_apply_all_reports;
          Alcotest.test_case "view refresh after write" `Quick
            test_view_updates_after_secure_write;
          Alcotest.test_case "deciding rule" `Quick test_deciding_rule_exposed;
          Alcotest.test_case "subject kind conflict" `Quick
            test_subject_kind_conflict;
        ] );
    ]
