(* Tests for the XSLT subset engine and the §5 security processor: a
   compiled stylesheet must produce exactly the view of axioms 15-17. *)

open Xmldoc
module P = Core.Paper_example

let doc () = Xml_parse.of_string P.document_xml

let serialize d = Xml_print.to_string ~indent:true d

(* --- engine ------------------------------------------------------------- *)

let identity_sheet =
  Xslt.Parse.of_string
    {|<xsl:stylesheet version="1.0">
        <xsl:template match="/ | //node() | //@*" priority="1">
          <xsl:copy><xsl:apply-templates select="@* | node()"/></xsl:copy>
        </xsl:template>
      </xsl:stylesheet>|}

let test_identity () =
  let d = doc () in
  let out = Xslt.Engine.apply identity_sheet d in
  Alcotest.(check string) "identity transform" (serialize d) (serialize out)

let test_identity_with_attributes () =
  let d = Xml_parse.of_string {|<a id="1"><b lang="fr">x</b><c/></a>|} in
  let out = Xslt.Engine.apply identity_sheet d in
  Alcotest.(check string) "attributes copied" (serialize d) (serialize out)

let test_builtin_rules () =
  (* With an empty stylesheet, built-ins walk elements and copy text. *)
  let d = doc () in
  let out = Xslt.Engine.apply (Xslt.Ast.stylesheet []) d in
  Alcotest.(check string) "text content only"
    "otolarynologytonsillitispneumologypneumonia"
    (Document.string_value out Ordpath.document)

let test_template_priorities () =
  let sheet =
    Xslt.Parse.of_string
      {|<xsl:stylesheet version="1.0">
          <xsl:template match="//service" priority="1"><low/></xsl:template>
          <xsl:template match="//service" priority="2"><high/></xsl:template>
          <xsl:template match="//diagnosis" priority="3"/>
        </xsl:stylesheet>|}
  in
  let out = Xslt.Engine.apply sheet (doc ()) in
  Alcotest.(check int) "high priority wins" 2
    (List.length (Xpath.Eval.select_str out "//high"));
  Alcotest.(check int) "low template never fires" 0
    (List.length (Xpath.Eval.select_str out "//low"));
  Alcotest.(check int) "empty template prunes" 0
    (List.length (Xpath.Eval.select_str out "//diagnosis"))

let test_modes () =
  let sheet =
    Xslt.Parse.of_string
      {|<xsl:stylesheet version="1.0">
          <xsl:template match="/">
            <xsl:apply-templates select="//service" mode="a"/>
            <xsl:apply-templates select="//service" mode="b"/>
          </xsl:template>
          <xsl:template match="//service" mode="a"><in-a/></xsl:template>
          <xsl:template match="//service" mode="b"><in-b/></xsl:template>
        </xsl:stylesheet>|}
  in
  let out = Xslt.Engine.apply sheet (doc ()) in
  Alcotest.(check int) "mode a" 2 (List.length (Xpath.Eval.select_str out "//in-a"));
  Alcotest.(check int) "mode b" 2 (List.length (Xpath.Eval.select_str out "//in-b"))

let test_value_of_if_choose () =
  let sheet =
    Xslt.Parse.of_string
      {|<xsl:stylesheet version="1.0">
          <xsl:template match="/">
            <report>
              <xsl:apply-templates select="/patients/*"/>
            </report>
          </xsl:template>
          <xsl:template match="/patients/*" priority="1">
            <patient>
              <xsl:if test="diagnosis/text()">
                <xsl:text>ill: </xsl:text>
                <xsl:value-of select="diagnosis"/>
              </xsl:if>
              <xsl:choose>
                <xsl:when test="service = 'pneumology'"><lungs/></xsl:when>
                <xsl:otherwise><other/></xsl:otherwise>
              </xsl:choose>
            </patient>
          </xsl:template>
        </xsl:stylesheet>|}
  in
  let out = Xslt.Engine.apply sheet (doc ()) in
  Alcotest.(check int) "two patients" 2
    (List.length (Xpath.Eval.select_str out "//patient"));
  Alcotest.(check int) "one lungs" 1
    (List.length (Xpath.Eval.select_str out "//lungs"));
  Alcotest.(check int) "one other" 1
    (List.length (Xpath.Eval.select_str out "//other"));
  Alcotest.(check int) "ill texts" 2
    (List.length (Xpath.Eval.select_str out "//patient/text()[starts-with(., 'ill: ')]"))

let test_copy_of () =
  let sheet =
    Xslt.Parse.of_string
      {|<xsl:stylesheet version="1.0">
          <xsl:template match="/">
            <archive><xsl:copy-of select="/patients/franck"/></archive>
          </xsl:template>
        </xsl:stylesheet>|}
  in
  let out = Xslt.Engine.apply sheet (doc ()) in
  Alcotest.(check int) "deep copy" 1
    (List.length (Xpath.Eval.select_str out "/archive/franck/diagnosis/text()"))

let test_computed_constructors () =
  (* An inversion transform: index patients by service, with computed
     element names and attributes. *)
  let sheet =
    Xslt.Parse.of_string
      {|<xsl:stylesheet version="1.0">
          <xsl:template match="/">
            <index><xsl:apply-templates select="/patients/*"/></index>
          </xsl:template>
          <xsl:template match="/patients/*" priority="1">
            <xsl:element name="{service}">
              <xsl:attribute name="patient"><xsl:value-of select="name(.)"/></xsl:attribute>
              <xsl:comment>generated</xsl:comment>
              <xsl:value-of select="diagnosis"/>
            </xsl:element>
          </xsl:template>
        </xsl:stylesheet>|}
  in
  let out = Xslt.Engine.apply sheet (doc ()) in
  Alcotest.(check int) "elements named by service" 1
    (List.length (Xpath.Eval.select_str out "/index/otolarynology"));
  Alcotest.(check int) "attribute carries the name" 1
    (List.length
       (Xpath.Eval.select_str out "/index/pneumology[@patient = 'robert']"));
  Alcotest.(check string) "content is the diagnosis" "tonsillitis"
    (match Xpath.Eval.select_str out "/index/otolarynology" with
     | [ id ] -> Document.string_value out id
     | _ -> "?");
  (* Static names work without braces; printing round-trips. *)
  let printed = Xslt.Parse.to_string sheet in
  let sheet2 = Xslt.Parse.of_string printed in
  Alcotest.(check string) "reprint equivalent"
    (serialize out)
    (serialize (Xslt.Engine.apply sheet2 (doc ())));
  (* Error paths. *)
  let empty_name =
    Xslt.Parse.of_string
      {|<xsl:stylesheet version="1.0">
          <xsl:template match="/"><xsl:element name="{//nothing}"/></xsl:template>
        </xsl:stylesheet>|}
  in
  match Xslt.Engine.apply empty_name (doc ()) with
  | exception Xslt.Engine.Error _ -> ()
  | _ -> Alcotest.fail "empty computed name must fail"

let test_parse_errors () =
  List.iter
    (fun src ->
      match Xslt.Parse.of_string src with
      | exception Xslt.Parse.Error _ -> ()
      | _ -> Alcotest.failf "%S should fail" src)
    [
      "<not-a-stylesheet/>";
      "<xsl:stylesheet><xsl:template/></xsl:stylesheet>";
      "<xsl:stylesheet><xsl:template match='/'><xsl:frob/></xsl:template></xsl:stylesheet>";
      "<xsl:stylesheet><xsl:template match='/' priority='abc'/></xsl:stylesheet>";
      "<xsl:stylesheet><xsl:template match='/'><xsl:if>x</xsl:if></xsl:template></xsl:stylesheet>";
    ]

let test_print_reparse () =
  let sheet = Core.Xslt_enforcer.compile P.policy ~user:P.beaufort in
  let printed = Xslt.Parse.to_string sheet in
  let reparsed = Xslt.Parse.of_string printed in
  let d = doc () in
  let vars = [ ("USER", Xpath.Value.Str P.beaufort) ] in
  Alcotest.(check string) "reparsed stylesheet behaves identically"
    (serialize (Xslt.Engine.apply ~vars sheet d))
    (serialize (Xslt.Engine.apply ~vars reparsed d))

(* --- the security processor (§5) ----------------------------------------- *)

let view_of policy d ~user =
  let flat = Xmldoc.Flat.of_document d in
  Core.View.derive flat (Core.Perm.compute policy flat ~user)

let check_enforcement user =
  let d = doc () in
  let via_view = view_of P.policy d ~user in
  let via_xslt = Core.Xslt_enforcer.enforce P.policy d ~user in
  Alcotest.(check string)
    (Printf.sprintf "XSLT enforcement = view for %s" user)
    (serialize via_view) (serialize via_xslt)

let test_enforce_secretary () = check_enforcement P.beaufort
let test_enforce_doctor () = check_enforcement P.laporte
let test_enforce_epidemiologist () = check_enforcement P.richard
let test_enforce_patient () = check_enforcement P.robert

let test_enforce_hospital_scale () =
  let config = { Workload.Gen_doc.default with patients = 40; seed = 31 } in
  let d = Workload.Gen_doc.generate config in
  let policy = Workload.Gen_policy.hospital config in
  List.iter
    (fun user ->
      let via_view = view_of policy d ~user in
      let via_xslt = Core.Xslt_enforcer.enforce policy d ~user in
      Alcotest.(check string) (user ^ " at scale") (serialize via_view)
        (serialize via_xslt))
    ("beaufort" :: "laporte" :: "richard"
    :: [ List.nth (Workload.Gen_doc.patient_names config) 7 ])

let test_stylesheet_is_document_independent () =
  (* One compilation serves any database. *)
  let sheet = Core.Xslt_enforcer.compile P.policy ~user:P.beaufort in
  let vars = [ ("USER", Xpath.Value.Str P.beaufort) ] in
  List.iter
    (fun xml ->
      let d = Xml_parse.of_string xml in
      let via_view =
        view_of P.policy d ~user:P.beaufort
      in
      Alcotest.(check string) "same view" (serialize via_view)
        (serialize (Xslt.Engine.apply ~vars sheet d)))
    [
      P.document_xml;
      "<patients><zoe><service>surgery</service><diagnosis>burn</diagnosis></zoe></patients>";
      "<patients/>";
    ]

(* Property: compiled enforcement equals the materialised view on random
   sessions (comment-free documents; see the documented limitation). *)
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

let prop_enforcement_equals_view =
  QCheck.Test.make ~count:120 ~name:"XSLT enforcement = materialised view"
    (QCheck.make
       ~print:(fun (doc, seed) ->
         Xml_print.to_string doc ^ Printf.sprintf " seed=%d" seed)
       QCheck.Gen.(pair doc_gen (int_range 0 10000)))
    (fun (doc, seed) ->
      let rule_paths =
        [ "//node()"; "/root"; "/root/node()"; "//text()"; "//a"; "//b";
          "//c/node()"; "//d"; "/root/a"; "//a/node()" ]
      in
      let policy =
        Workload.Gen_policy.random ~paths:rule_paths
          { rules = 10; deny_fraction = 0.4; seed }
      in
      let view = view_of policy doc ~user:"u" in
      let enforced = Core.Xslt_enforcer.enforce policy doc ~user:"u" in
      String.equal (serialize view) (serialize enforced))

let () =
  Alcotest.run "xslt"
    [
      ( "engine",
        [
          Alcotest.test_case "identity" `Quick test_identity;
          Alcotest.test_case "identity with attributes" `Quick
            test_identity_with_attributes;
          Alcotest.test_case "built-in rules" `Quick test_builtin_rules;
          Alcotest.test_case "priorities" `Quick test_template_priorities;
          Alcotest.test_case "modes" `Quick test_modes;
          Alcotest.test_case "value-of / if / choose" `Quick
            test_value_of_if_choose;
          Alcotest.test_case "copy-of" `Quick test_copy_of;
          Alcotest.test_case "computed constructors" `Quick
            test_computed_constructors;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "print/reparse" `Quick test_print_reparse;
        ] );
      ( "security processor",
        [
          Alcotest.test_case "secretary" `Quick test_enforce_secretary;
          Alcotest.test_case "doctor" `Quick test_enforce_doctor;
          Alcotest.test_case "epidemiologist" `Quick
            test_enforce_epidemiologist;
          Alcotest.test_case "patient" `Quick test_enforce_patient;
          Alcotest.test_case "hospital scale" `Quick
            test_enforce_hospital_scale;
          Alcotest.test_case "document independence" `Quick
            test_stylesheet_is_document_independent;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_enforcement_equals_view ] );
    ]
