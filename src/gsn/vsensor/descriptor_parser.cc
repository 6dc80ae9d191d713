#include "gsn/vsensor/descriptor_parser.h"

#include <fstream>
#include <sstream>

#include "gsn/xml/xml.h"

namespace gsn::vsensor {

namespace {

Result<std::map<std::string, std::string>> ParsePredicates(
    const xml::Element& parent) {
  std::map<std::string, std::string> out;
  for (const xml::Element* p : parent.Children("predicate")) {
    const std::string key = p->Attr("key");
    if (key.empty()) {
      return Status::ParseError("<predicate> without key attribute");
    }
    if (!out.emplace(key, p->Attr("val")).second) {
      return Status::ParseError("duplicate predicate key '" + key + "'");
    }
  }
  return out;
}

Result<StreamSourceSpec> ParseStreamSource(const xml::Element& e) {
  StreamSourceSpec source;
  source.alias = e.Attr("alias");
  if (source.alias.empty()) {
    return Status::ParseError("<stream-source> requires alias attribute");
  }
  if (e.HasAttr("sampling-rate")) {
    GSN_ASSIGN_OR_RETURN(source.sampling_rate,
                         ParseDouble(e.Attr("sampling-rate")));
  }
  if (e.HasAttr("storage-size")) {
    GSN_ASSIGN_OR_RETURN(source.window,
                         ParseWindowSpec(e.Attr("storage-size")));
  } else {
    // Default window: the latest element only.
    source.window.kind = WindowSpec::Kind::kCount;
    source.window.count = 1;
  }
  if (e.HasAttr("disconnect-buffer")) {
    GSN_ASSIGN_OR_RETURN(source.disconnect_buffer,
                         ParseInt64(e.Attr("disconnect-buffer")));
  }
  if (e.HasAttr("fill-missing")) {
    const std::string mode = StrToLower(StrTrim(e.Attr("fill-missing")));
    if (mode == "last") {
      source.fill_missing_with_last = true;
    } else if (mode != "none") {
      return Status::ParseError("unknown fill-missing mode '" + mode +
                                "' (expected: last, none)");
    }
  }
  if (e.HasAttr("queue-capacity")) {
    GSN_ASSIGN_OR_RETURN(source.queue_capacity,
                         ParseInt64(e.Attr("queue-capacity")));
  }
  if (e.HasAttr("shed-policy")) {
    GSN_RETURN_IF_ERROR(ParseShedPolicy(e.Attr("shed-policy")).status());
    source.shed_policy = StrToLower(StrTrim(e.Attr("shed-policy")));
  }
  const xml::Element* address = e.Child("address");
  if (address == nullptr) {
    return Status::ParseError("stream source '" + source.alias +
                              "' has no <address>");
  }
  source.address.wrapper = address->Attr("wrapper");
  if (source.address.wrapper.empty()) {
    return Status::ParseError("<address> of '" + source.alias +
                              "' has no wrapper attribute");
  }
  GSN_ASSIGN_OR_RETURN(source.address.predicates, ParsePredicates(*address));
  if (const xml::Element* q = e.Child("query"); q != nullptr) {
    source.query = q->text();
  }
  return source;
}

Result<InputStreamSpec> ParseInputStream(const xml::Element& e) {
  InputStreamSpec stream;
  stream.name = e.Attr("name");
  if (stream.name.empty()) {
    return Status::ParseError("<input-stream> requires name attribute");
  }
  if (e.HasAttr("rate")) {
    GSN_ASSIGN_OR_RETURN(stream.max_rate, ParseDouble(e.Attr("rate")));
  }
  for (const xml::Element* src : e.Children("stream-source")) {
    GSN_ASSIGN_OR_RETURN(StreamSourceSpec source, ParseStreamSource(*src));
    stream.sources.push_back(std::move(source));
  }
  // The input stream's own <query> is its only direct child <query>
  // (sources carry theirs nested inside <stream-source>).
  if (const xml::Element* q = e.Child("query"); q != nullptr) {
    stream.query = q->text();
  }
  return stream;
}

}  // namespace

Result<VirtualSensorSpec> ParseDescriptor(std::string_view xml_text) {
  GSN_ASSIGN_OR_RETURN(xml::Document doc, xml::Parse(xml_text));
  const xml::Element* root = doc.root();
  if (root->name() != "virtual-sensor") {
    return Status::ParseError(
        "descriptor root must be <virtual-sensor>, got <" + root->name() +
        ">");
  }

  VirtualSensorSpec spec;
  spec.name = root->Attr("name");

  if (const xml::Element* meta = root->Child("metadata"); meta != nullptr) {
    GSN_ASSIGN_OR_RETURN(spec.metadata, ParsePredicates(*meta));
  }

  if (const xml::Element* lc = root->Child("life-cycle"); lc != nullptr) {
    if (lc->HasAttr("pool-size")) {
      GSN_ASSIGN_OR_RETURN(int64_t pool, ParseInt64(lc->Attr("pool-size")));
      spec.life_cycle.pool_size = static_cast<int>(pool);
    }
    if (lc->HasAttr("lifetime")) {
      GSN_ASSIGN_OR_RETURN(spec.life_cycle.lifetime_micros,
                           ParseDurationMicros(lc->Attr("lifetime")));
    }
  }

  const xml::Element* os = root->Child("output-structure");
  if (os == nullptr) {
    return Status::ParseError("descriptor has no <output-structure>");
  }
  for (const xml::Element* f : os->Children("field")) {
    const std::string field_name = f->Attr("name");
    if (field_name.empty()) {
      return Status::ParseError("<field> without name attribute");
    }
    GSN_ASSIGN_OR_RETURN(DataType type, ParseDataType(f->Attr("type")));
    if (spec.output_structure.Contains(field_name)) {
      return Status::ParseError("duplicate output field '" + field_name + "'");
    }
    spec.output_structure.AddField(StrToLower(field_name), type);
  }

  if (const xml::Element* st = root->Child("storage"); st != nullptr) {
    if (st->HasAttr("permanent-storage")) {
      GSN_ASSIGN_OR_RETURN(spec.storage.permanent,
                           ParseBool(st->Attr("permanent-storage")));
    }
    if (st->HasAttr("size")) {
      GSN_ASSIGN_OR_RETURN(spec.storage.history,
                           ParseWindowSpec(st->Attr("size")));
    }
  }
  if (spec.storage.history.duration_micros == 0 &&
      spec.storage.history.count == 0) {
    // Default output retention: 10 minutes of history.
    spec.storage.history.kind = WindowSpec::Kind::kTime;
    spec.storage.history.duration_micros = 10 * kMicrosPerMinute;
  }

  for (const xml::Element* is : root->Children("input-stream")) {
    GSN_ASSIGN_OR_RETURN(InputStreamSpec stream, ParseInputStream(*is));
    spec.input_streams.push_back(std::move(stream));
  }

  GSN_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

Result<VirtualSensorSpec> ParseDescriptorFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open descriptor file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ParseDescriptor(ss.str());
}

}  // namespace gsn::vsensor
