#include "sim/log.h"

namespace beacongnn::sim {

namespace {

void
emit(const char *tag, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
}

} // namespace

void
warn(const std::string &msg)
{
    emit("warn", msg);
}

void
panic(const std::string &msg)
{
    emit("panic", msg);
    std::abort();
}

void
fatal(const std::string &msg)
{
    emit("fatal", msg);
    std::exit(1);
}

} // namespace beacongnn::sim
